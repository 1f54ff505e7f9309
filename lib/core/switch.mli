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
    flood, resync unicast, change signal, timer start and timer cancel
    is one {!output} handed to the sink its driver {!connect}s.  So a
    switch holds no closure and {!copy} is a structural copy. *)

type stats = {
  computations : int;
      (** Topology computations completed (proposals per event metric). *)
  computations_withdrawn : int;
      (** Completed computations whose proposal was withdrawn. *)
  proposals_flooded : int;
  proposals_accepted : int;  (** Received proposals installed. *)
}

(** What a switch receives: the payload of an {!Lsr.Lsa.t}. *)
type payload =
  | Mc of Mc_lsa.t  (** An MC LSA ([F = mc]). *)
  | Link of Lsr.Lsdb.link_event  (** A non-MC LSA ([F = ¬mc]). *)
  | Resync of Resync.msg
      (** A crash-recovery resynchronisation message, unicast between
          neighbors — never flooded (extension; see {!begin_resync}). *)

(** A timer a switch asks its driver to run: plain data, handed back
    through {!fire} when due. *)
type timer =
  | Compute of { mc : Mc_id.t; id : int }
      (** The completion of topology computation [id] for [mc], [Tc]
          after it started. *)
  | Resync_deadline of int
      (** The deadline of crash-recovery session [id] ({!begin_resync}). *)

(** What a switch emits. *)
type output =
  | Flood of payload  (** An MC LSA, or a link event detected or adopted. *)
  | Send of { peer : int; msg : Resync.msg }
      (** A resynchronisation unicast to a neighbor. *)
  | Changed  (** A topology, member list or MC state changed. *)
  | Start of { timer : timer; delay : float }
      (** Fire [timer] [delay] simulated seconds from now.  Timers due at
          the same instant fire in start order. *)
  | Cancel of timer
      (** Drop [timer] if still pending.  Only a resync deadline is ever
          cancelled, when its session finishes or is superseded. *)

type t

val create :
  id:int ->
  n:int ->
  config:Config.t ->
  engine:Sim.Engine.t ->
  boot:Lsr.Lsdb.boot ->
  unit ->
  t
(** [boot] seeds the switch's link-state image ({!Lsr.Lsdb.create}:
    shared with the run's other switches until this one applies a link
    change).
    The switch reads [engine]'s clock and records into its sinks
    ({!Sim.Engine.trace} and {!Sim.Engine.metrics}); it schedules
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
    then flood and install or withdraw) or end the session at its
    deadline.  A timer whose computation already completed or whose
    session is no longer the live one does nothing. *)

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
(** Hand the switch one received payload.  An MC LSA enters the mailbox
    and triggers a [ReceiveLSA()] invocation unless one is
    mid-computation (or, while RESYNCING, is deferred).  A link event
    updates the image (version-gated; see {!Lsr.Lsdb.apply}) without
    running [EventHandler]: only the incident switches {!detect}.  A
    [Summary] is answered statelessly with a [Delta] of everything the
    summary proves its origin is behind on (newer link versions are also
    adopted and re-flooded locally).  A [Delta] is applied only when it
    echoes the live session's id and comes from a still-outstanding
    neighbor; anything else is dropped as stale. *)

(** {1 Database resynchronisation (extension)} *)

val resync : t -> peer:t -> unit
(** Pull the peer switch's knowledge into this switch — the analogue of
    an OSPF database exchange when an adjacency forms.  Three phases:
    merge the peer's versioned link-state image (adopted link events are
    re-flooded as [Flood (Link _)] outputs so switches behind this one
    learn them too); for every MC the peer tracks, apply the state a
    {!Resync.Delta} from the peer would carry — the same adoption rule:
    merge its [R]/[E] vectors, adopt its per-source membership knowledge
    where newer, adopt its topology where based on newer state — and,
    when anything new was learned, schedule a topology computation at
    once whose proposal refloods the reconciled state; finally, if the image changed, re-propose for
    every MC whose installed topology the merged image contradicts.  The
    paper leaves network partitioning "for further study"; this is the
    missing piece that lets the two sides of a healed partition
    reconverge (see DESIGN.md). *)

(** {1 Crash-recovery resynchronisation (extension)} *)

val begin_resync : t -> unit
(** Enter the RESYNCING state: unicast a {!Resync.Summary} of this
    switch's databases (a [Send] output) to every neighbor its image
    shows live, and suspend normal MC-LSA handling — LSAs received
    meanwhile are deferred and replayed in arrival order when the session
    finishes.  The session finishes when one neighbor's delta has been
    applied, when every neighbor has resolved by transport giveup, or
    when {!Config.resync_deadline_hops} [× t_hop]
    elapses; on finish, deferred LSAs are replayed and a topology
    computation is scheduled for every MC the reconciled state flagged.
    With no live neighbors the switch finishes degraded immediately.
    Calling this while a session is in flight supersedes it (the crash
    recurred); deferred LSAs survive the restart. *)

val resync_transport_failed : t -> peer:int -> unit
(** The unicast transport gave up delivering to [peer] (its retransmit
    budget exhausted — the neighbor is crashed or unreachable).  Resolves
    the neighbor; finishes the session degraded once no outstanding
    neighbor remains. *)

val resync_state : t -> (int * int list) option
(** [(session id, outstanding neighbors (sorted))] of the in-flight
    session — model-checker state-hash fodder. *)

val deferred_lsas : t -> Mc_lsa.t list
(** MC LSAs deferred by the in-flight (or a finished-degraded) session,
    in arrival order.  Empty when not resyncing. *)

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

val quiescent : t -> Mc_id.t -> bool
(** No pending computations, an empty mailbox for the MC, no deferred
    LSA touching it, and no resynchronisation session in flight
    (vacuously true when no state exists). *)

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
