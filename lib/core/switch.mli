(** A D-GMC protocol switch: the two protocol entities of paper §3.3.

    [EventHandler()] (Figure 4) runs when a local event — a host
    join/leave through this ingress switch, or an incident link event
    affecting an MC — occurs.  [ReceiveLSA()] (Figure 5) runs whenever MC
    LSAs are present in the switch's mailbox.  Topology computations take
    [Config.tc] of simulated time; both entities re-validate their saved
    [old_R] against the live [R] at completion and withdraw proposals that
    became stale, exactly as the paper prescribes.

    A switch is the one owner of how it reacts to the network: its
    driver hands it every received payload through {!deliver}, every
    change on an incident link through {!detect} and every due timer
    through {!fire}.  It never touches a wire or a calendar itself: each
    flood, resync unicast, change signal and timer start is one
    {!output} handed to the sink its driver {!connect}s.  So a switch
    holds no closure and {!copy} is a structural copy.

    This module holds the switch's state, the two entities and the
    dispatch; each extension beyond the paper is a module joined to them
    at one named call: {!Tiebreak}, {!Tombstone}, {!Member_snapshot},
    {!Redetect}, {!Revalidate} and {!Exchange} (both database
    exchanges). *)

type stats = {
  computations : int;
      (** Topology computations completed (proposals per event metric). *)
  computations_withdrawn : int;
      (** Completed computations whose proposal was withdrawn. *)
  proposals_flooded : int;
  proposals_accepted : int;  (** Received proposals installed. *)
}

include module type of struct include Switch_io end

type t

val create :
  id:int ->
  n:int ->
  config:Config.t ->
  engine:Sim.Engine.t ->
  boot:Lsr.Lsdb.boot ->
  t
(** [boot] seeds the switch's link-state image ({!Lsr.Lsdb.create}:
    shared with the run's other switches until this one applies a link
    change).
    The switch reads [engine]'s clock and records into its sinks
    ({!Sim.Engine.trace} and {!Sim.Engine.metrics}); it posts
    nothing on it.

    An enabled trace receives structured events for every protocol
    transition: [Compute_started] when a topology computation begins
    (trigger [event:<v>] for [EventHandler], [receive-lsa] for the
    triggered entity), [Proposal_made] at completion (with [withdrawn]
    set when the result was stale), [Topology_installed] whenever [C]
    and the installed tree change (carrying the full R/E/C vectors,
    member list and tree), and [Resync] per MC pulled from a peer; the
    flooding and adoption these cause are linked to them causally.  The
    switch counts in [switch.*] handles of the registry labelled with its
    id, four of which {!stats} reads. *)

val id : t -> int

val stats : t -> stats

val image : t -> Net.Graph.t
(** The switch's current link-state image. *)

val lsdb_entries : t -> Lsr.Lsdb.link_event list
(** Versioned link entries of the image ({!Lsr.Lsdb.entries}): the
    version knowledge behind [image], which up/down flags alone do not
    capture (the model checker hashes it; resynchronisation ships it). *)

val connect : t -> (output -> unit) -> unit
(** [connect t sink]: hand every {!output} of [t] to [sink], in emission
    order.  A switch that is not connected raises [Invalid_argument] on
    its first output of any kind. *)

val copy : t -> t
(** An independent switch in [t]'s exact state: later inputs to either
    never reach the other, and equal inputs produce equal outputs.  It
    shares [t]'s engine and is not connected.  Its counts are its own
    and start at zero: {!stats} reads what the copy itself did.  The
    two share their stamps, which the copy freezes in [t] first, so an
    in-place update on either side copies instead of writing (see
    {!Timestamp}). *)

val fire : t -> timer -> unit
(** Run a due timer: complete the computation (the withdrawal check,
    then flood and install or withdraw).  A timer whose computation
    already completed does nothing. *)

(** {1 Local events (EventHandler)} *)

val host_join : t -> Mc_id.t -> Member.role -> unit
(** A host attached to this switch joins the MC. *)

val host_leave : t -> Mc_id.t -> unit
(** The switch's last interested host leaves. *)

val detect : t -> Lsr.Lsdb.link_event -> unit
(** This switch noticed a change of one of its incident links (paper
    Figure 2): apply the versioned event ({!Lsr.Lsdb.stamp}) to the local
    image, run [EventHandler] for every MC whose current local topology
    uses the link when it went down, and flood the event as a non-MC LSA
    (a [Flood (Link _)] output). *)

val detect_link : t array -> Lsr.Lsdb.link_event -> unit
(** Both endpoints of the stamped link event {!detect} it, the higher id
    first ([switches] is indexed by id).  The paper's Figure 2 draws one
    detecting switch; detection at both ends keeps BOTH sides of a cut
    repairing when the failure splits the network. *)

(** {1 Reception} *)

val deliver : t -> payload -> unit
(** Hand the switch one received payload.  An MC LSA triggers a
    [ReceiveLSA()] invocation, or waits in the mailbox while one is
    mid-computation; a bare proposal for a deleted MC only reaches
    {!Tombstone.absorb}.  A link event updates the image (version-gated)
    without running [EventHandler]: only the incident switches
    {!detect}.  A resynchronisation message goes to {!Exchange.receive}. *)

(** {1 Database exchanges (extension)} *)

val resync : t -> peer:t -> unit
(** On link-up: {!Exchange.pull} the peer's knowledge into this switch,
    which lets the two sides of a healed partition reconverge. *)

val begin_resync : t -> unit
(** When a crash window closes: {!Exchange.recover}. *)

val resync_state : t -> int option
(** The open recovery session's id: it decides which delta applies. *)

(** {1 Introspection} *)

val mc_ids : t -> Mc_id.t list
(** MCs this switch currently holds state for, sorted. *)

val members : t -> Mc_id.t -> Member.t option

val topology : t -> Mc_id.t -> Mctree.Tree.t option

val stamps : t -> Mc_id.t -> (Timestamp.t * Timestamp.t * Timestamp.t) option
(** [(R, E, C)], frozen: later updates of the switch do not change
    them. *)

val proposal_flag : t -> Mc_id.t -> bool
(** The paper's [make_proposal_flag] ([false] when no state exists). *)

val tombstones :
  t -> (Mc_id.t * (Timestamp.t * Timestamp.t * Timestamp.t)) list
(** The {!Tombstone}s, sorted by MC id: protocol state even while the
    MC is gone. *)

val quiescent : t -> Mc_id.t -> bool
(** No pending computations and an empty mailbox for the MC (vacuously
    true when no state exists).  An open recovery session does not
    count: it holds no work. *)

type mc_snapshot = {
  snap_mc : Mc_id.t;
  snap_r : Timestamp.t;
  snap_e : Timestamp.t;
  snap_c : Timestamp.t;
  snap_flag : bool;  (** The paper's [make_proposal_flag]. *)
  snap_members : Member.t;
  snap_topology : Mctree.Tree.t;
  snap_membership_seen : Timestamp.t;
      (** Per-source index of the newest membership event applied. *)
  snap_mailbox : Mc_lsa.t list;  (** Queued LSAs, arrival order. *)
  snap_computations : Timestamp.t list;
      (** [old_R] of each in-flight [EventHandler] computation, start order. *)
  snap_triggered : Timestamp.t option;
      (** [old_R] of the in-flight [ReceiveLSA]-triggered computation. *)
}
(** A faithful copy of one MC's complete protocol state at this switch —
    everything [EventHandler]/[ReceiveLSA] read or write.  The {!module:
    Check} analyses consume these: the invariant catalogue checks the
    timestamp lattice laws on them, and the model checker derives its
    state-hash from them. *)

val snapshots : t -> mc_snapshot list
(** One snapshot per MC this switch holds state for, sorted by MC id.
    Immutable throughout: the stamps are frozen ({!Timestamp}), so
    holding one does not alias live state. *)
