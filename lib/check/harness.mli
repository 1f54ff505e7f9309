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

    {b Computations.}  Each switch gets a private {!Sim.Engine}, so the
    {e completion order} of concurrent topology computations at
    different switches is also explorer-chosen ({!Complete}), while
    completions within one switch stay FIFO, as on real hardware.

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
    triggers [EventHandler]), and the link-up pairwise database
    resynchronisation extension is not modelled ({!Crash}/{!Recover}
    cover the crash-recovery exchange instead). *)

type event =
  | Action of Workload.Events.action
      (** A membership or link event, as a workload schedules it. *)
  | Crash of int  (** Begin a forwarding-plane outage at the switch. *)
  | Recover of int
      (** End the outage; the switch enters RESYNCING
          ({!Dgmc.Switch.begin_resync}). *)
  | Hello_round
      (** Advance the abstract link-health layer by one hello round
          (requires [config.health]; [Invalid_argument] otherwise).
          Every directed adjacency either hears a hello — possible iff
          the link is up, the sender is alive and neither direction is
          suppressed — or counts a miss; detectors declare down after
          [a_detect_rounds] misses and the declaring switch alone
          detects the change ({!Dgmc.Switch.detect}), as under
          {!Dgmc.Protocol} with [Config.health]. *)

type action =
  | Deliver of { dst : int; msg : int }
      (** Deliver pooled message [msg] to switch [dst]. *)
  | Complete of int  (** Finish the next pending computation at a switch. *)

type t

val create : graph:Net.Graph.t -> config:Dgmc.Config.t -> unit -> t
(** Fresh network; [graph] is copied (the harness owns the ground
    truth).  When [config.health] is set, the harness runs the
    round-granular abstraction of the link-health layer
    ({!Health.Config.abstract}): link events touch ground truth only,
    and {!event.Hello_round}s drive the abstract detectors that must
    discover them. *)

val switches : t -> Dgmc.Switch.t array

val graph : t -> Net.Graph.t
(** Ground-truth topology (reflects injected link events). *)

val truth : t -> (Dgmc.Mc_id.t * Dgmc.Member.t) list
(** Ground-truth membership per MC, from injected joins/leaves. *)

val inject : t -> event -> unit
(** Apply a local event.  A link event is stamped by the harness's
    ground-truth {!Lsr.Lsdb.clock} and handed to {!Dgmc.Switch.detect}
    at both endpoints, higher one first (or, with [config.health], only
    changes ground truth). *)

val pending_count : t -> int
(** Pending work items: pooled (destination, message) deliveries plus
    unfinished topology computations across all switches.  Every
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

(** {2 Link-health observation}

    All of these are empty/[None] unless the config had [health] set. *)

type adjacency_view = {
  av_watcher : int;
  av_peer : int;
  av_up : bool;  (** The watcher's belief about the adjacency. *)
  av_suppressed : bool;
  av_truth_down : bool;
      (** Ground truth: link down or peer inside an outage. *)
  av_stable_rounds : int;
      (** Hello rounds since the adjacency's ground truth last changed
          while the watcher was alive. *)
}

val health_adjacencies : t -> adjacency_view list
(** Every directed adjacency's abstract detector state, sorted by
    (watcher, peer). *)

val health_spurious : t -> string list
(** Down declarations that contradicted ground truth at declaration
    time, oldest first.  Any entry is a false positive — the abstract
    model loses no hellos, so this list must stay empty. *)

val health_detect_rounds : t -> int option
(** [a_detect_rounds] of the abstract detector, when health is on. *)

val suppressed_links : t -> (int * int) list
(** Links at least one of whose directions is currently
    damping-suppressed, normalised [(lo, hi)], sorted, deduplicated. *)
