(** The terminal laws: D-GMC's correctness claim (paper §3.4), stated
    once.

    Once no message or computation is in flight, every switch holding
    state for an MC agrees on its member list and topology, and that
    topology is valid for the real network and the real member set.
    Every judge of convergence applies the laws here: {!Protocol}'s
    [converged], [divergence] and [converged_among], the runtime monitor
    ([Check.Monitor]), the model checker ([Check.Explore], and through
    it [Check.Search]) and the hierarchical variant ([Hierarchy.Hmc]).

    The laws come in three groups, always reported in this order.

    {b Agreement} among a set of switches, per MC:
    - [quiescent] — no mailbox entry or computation is pending at any
      switch of the set (an open recovery session holds no work);
    - [terminal-R=E] — every switch holding state received every event
      it was promised;
    - [pending-duty] — no switch stopped with a recomputation owed
      ([make_proposal_flag] set with [R >= E] and [R > C]);
    - [agreement-members], [agreement-topology] — every holder of state
      matches the first holder's member list and topology.

    {b Ground truth}, per MC, judged on the first holder:
    - [truth-members] — its member list is the real one (also violated
      when no switch holds state but the real member set is not empty);
    - [valid-topology] — its topology is a valid embedded tree of the
      real graph;
    - [terminals-match] — its topology's terminals are the real
      members.

    {b Link health}, per switch and MC ([Config.health] only):
    - [suppress-install] — no installed topology contains a link under
      damping suppression.

    Switch state is read through {!Switch.mc_ids}, {!Switch.members},
    {!Switch.topology}, {!Switch.stamps}, {!Switch.proposal_flag} and
    {!Switch.quiescent};
    violations name switches by {!Switch.id}. *)

type violation = {
  switch : int option;  (** Offending switch, when attributable. *)
  mc : Mc_id.t option;
  law : string;  (** Short law name, e.g. ["terminal-R=E"]. *)
  detail : string;
}

val to_string : violation -> string
(** ["[law] switch S mc: detail"] (["network"] when no switch is
    attributable). *)

val agreement : Mc_id.t -> Switch.t array -> violation list
(** The agreement group over the given switches. *)

val against_truth :
  graph:Net.Graph.t -> members:Member.t -> Mc_id.t -> Switch.t array ->
  violation list
(** The ground-truth group: [graph] is the real topology, [members] the
    real member set of the MC. *)

val check :
  graph:Net.Graph.t ->
  truth:(Mc_id.t * Member.t) list ->
  Switch.t array ->
  violation list
(** The first two groups for every MC that a switch holds state for or
    [truth] names (an MC wrongly deleted everywhere is still examined),
    in MC order.  An MC missing from [truth] has no real members. *)

val suppress_install :
  suppressed:(int * int) list -> Switch.t array -> violation list
(** The link-health group over the damping-suppressed links, as
    [(lo, hi)]. *)
