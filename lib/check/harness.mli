(** An explorer-controlled D-GMC network.

    {!Dgmc.Protocol} delivers every flooded LSA in one fixed
    (hop-latency-driven) order.  To model-check the protocol we instead
    need to drive a network of {!Dgmc.Switch} instances through {e
    chosen} delivery orders: the harness intercepts every flood into a
    pending-message pool and exposes the enabled next steps as explicit
    {!action}s.  The switches' own code decides what a delivery or a
    detection does ({!Dgmc.Switch.deliver}, {!Dgmc.Switch.detect}); the
    harness only chooses the order.

    {b Causal delivery.}  Arbitrary pool orderings would be too
    permissive: under real hop-by-hop flooding an LSA flooded {e as a
    consequence of} receiving another can never overtake its cause at a
    third switch (the triangle inequality — the effect leaves its origin
    strictly after the cause arrived there, and the cause was already in
    flight everywhere).  Exploring acausal orderings would report
    "violations" no execution can exhibit.  Each pooled message
    therefore records its causal [past] — everything its origin had
    delivered or flooded at flood time — and delivering [m] to [dst] is
    enabled only once no message of [past m] is still pending towards
    [dst].  Per-origin FIFO is the special case [own floods ∈ past].

    {b Computations.}  A switch's timers ({!Dgmc.Switch.Start}: topology
    computations and resync deadlines) pool per switch, on a private
    clock, so the {e completion order} of concurrent computations at
    different switches is also explorer-chosen ({!Complete}), while
    timers within one switch fire in due-time order, start order among
    equal times, as on real hardware.

    {b Copies.}  A switch holds no closure, so {!copy} branches a state
    in place of rebuilding it: the explorer builds each expanded state
    once and applies each enabled action to its own copy.

    {b Crashes.}  {!Crash} mirrors {!Faults.Plan}'s crash model: a
    forwarding-plane outage.  Messages in flight to or from the switch
    are lost (a pending summary towards it resolves to the transport
    giveup its sender would eventually see), floods occurring while it
    is down never reach it, its own floods die at its ports — yet its
    protocol state and running computations survive.  {!Recover} ends
    the outage and starts the crash-recovery resynchronisation exchange
    ({!Dgmc.Switch.begin_resync}); the summaries, deltas and deferred
    LSA replays it produces become ordinary pool messages, so the
    explorer drives every interleaving of recovery against live
    traffic.

    Limitations (documented, deliberate): floods reach every live
    switch (no partitions — link up/down only changes images and
    triggers [EventHandler]), the link-up pairwise database
    resynchronisation extension is not modelled ({!Crash}/{!Recover}
    cover the crash-recovery exchange instead), and neither is the
    link-health layer: a link event reaches both endpoints at once, as
    the LSR layer reports it in the paper, and {!create} rejects a
    config with [health] set. *)

type event =
  | Action of Workload.Events.action
      (** A membership or link event, as a workload schedules it. *)
  | Crash of int  (** Begin a forwarding-plane outage at the switch. *)
  | Recover of int
      (** End the outage; the switch enters RESYNCING
          ({!Dgmc.Switch.begin_resync}). *)

type action =
  | Deliver of { dst : int; msg : int }
      (** Deliver pooled message [msg] to switch [dst]. *)
  | Complete of int
      (** Fire the next pending timer at a switch: complete a topology
          computation, or end a resync session at its deadline. *)

type t

val create : graph:Net.Graph.t -> config:Dgmc.Config.t -> unit -> t
(** Fresh network; [graph] is copied (the harness owns the ground
    truth).  Raises [Invalid_argument] when [config.health] is set. *)

val copy : t -> t
(** An independent network in [t]'s exact state: every action applies
    to the copy as it would to [t], with the same successor {!digest},
    and neither sees the other's later actions. *)

val switches : t -> Dgmc.Switch.t array

val graph : t -> Net.Graph.t
(** Ground-truth topology (reflects injected link events). *)

val truth : t -> (Dgmc.Mc_id.t * Dgmc.Member.t) list
(** Ground-truth membership per MC, from injected joins/leaves. *)

val inject : t -> event -> unit
(** Apply a local event.  A link event is stamped by the harness's
    ground-truth {!Lsr.Lsdb.clock} and handed to {!Dgmc.Switch.detect}
    at both endpoints, higher one first. *)

val pending_count : t -> int
(** Pending work items: pooled (destination, message) deliveries plus
    pending timers (computations and resync deadlines) across all
    switches.  Every
    {!action} removes exactly one such item (and may add more), so this
    is an admissible, consistent lower bound on the number of actions
    separating the state from any terminal state — the primary key of
    {!Search}'s best-first priority. *)

val enabled : t -> action list
(** Every causally-enabled next step, deterministically ordered, with
    equivalent deliveries (same destination, same payload fingerprint,
    same blocker set) deduplicated.  Empty iff the state is terminal. *)

val apply : t -> action -> unit
(** Execute one action.  Raises [Invalid_argument] if it is not
    currently enabled ({!Deliver} of an absent message, {!Complete} with
    nothing pending). *)

val settle : t -> unit
(** Drain deterministically: repeatedly apply the first enabled action.
    Used to reach a converged starting state before a race is
    injected. *)

val digest : t -> string
(** Canonical fingerprint of the full network state: every switch's
    protocol state and image, the causally-relevant structure of the
    pending pool, the ground truth.  Message identities are abstracted
    (only payload content and blocking structure matter), so two
    prefixes reaching semantically identical states collide. *)

val describe : t -> action -> string
(** Human-readable rendering for counterexample traces. *)
