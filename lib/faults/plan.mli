(** Deterministic fault injection for message delivery.

    A fault plan sits between a sender and the simulation calendar: every
    per-link transmission is submitted to {!transmit}, which decides —
    from the plan's own seeded {!Sim.Rng} stream — whether the message is
    dropped, duplicated, delayed (jitter), or delayed far enough to be
    overtaken (reordering), and whether a scheduled switch crash or
    partition window currently severs the (src, dst) pair.  It writes
    the delay of each copy to deliver into a caller-owned array and
    returns how many it wrote; the caller schedules one delivery per
    copy, and [0] means the message is lost.

    Everything is deterministic: a plan built from the same seed and
    subjected to the same sequence of {!transmit} calls (which a seeded
    simulation guarantees) makes identical decisions and counts identical
    faults.  That is what makes a fuzz failure replayable from its
    printed seed.

    Probabilistic faults (drop/duplicate/reorder/jitter) are memoryless
    and never end; scheduled faults (crashes, partitions) are windows in
    simulated time ({!crash_switch}, {!partition}): convergence
    may be demanded once the last one closes. *)

(** {1 Fault specification} *)

type spec = {
  drop : float;  (** Per-transmission loss probability, in [[0, 1]]. *)
  duplicate : float;
      (** Probability that a transmission is delivered twice, in
          [[0, 1]].  The copy draws its own jitter/reorder delay. *)
  reorder : float;
      (** Probability that a copy is held back by an extra delay drawn
          uniformly from [[0, 4 × base_delay)], letting later
          transmissions overtake it.  In [[0, 1]]. *)
  jitter : float;
      (** Every copy gets a uniform extra delay in
          [[0, jitter × base_delay]].  Non-negative. *)
}

val spec_of_string : string -> (spec, string) result
(** Parse ["drop=0.3,dup=0.1,reorder=0.2,jitter=0.5"] — comma-separated
    [key=value] pairs over the transparent spec (all probabilities and
    delays zero).  Keys: [drop], [dup], [reorder], [jitter].
    Probabilities must lie in [[0, 1]], the jitter must be non-negative
    and finite. *)

val spec_to_string : spec -> string
(** Canonical rendering, re-parseable by {!spec_of_string} — used in
    fuzz reproduction lines. *)

val spec_is_transparent : spec -> bool
(** No probabilistic fault can fire under this spec. *)

(** {1 Plans} *)

type t

val create : spec:spec -> seed:int -> unit -> t
(** A fresh plan applying [spec] to every link, drawing from a private
    generator seeded with [seed]. *)

val instrument : t -> Sim.Engine.t -> unit
(** Record into the engine's sinks ({!Sim.Engine.trace} and
    {!Sim.Engine.metrics}): with an enabled trace, every injected fault
    emits a [Fault_injected] event; {!counters} reads the registry's
    [faults.*] handles, which restart at zero here, so instrument a plan
    before it mediates a transmission.  With an enabled trace it also
    schedules a mark of every window already added, in scheduling
    order: a crash as [Crash] and [Recover] events, a partition as a
    ["partition"] note ["partition {0,1} begins"] and one that
    ["… heals"].  Untraced, the calendar is left untouched.
    [Dgmc.Protocol.create] instruments its plan after scheduling each crash
    window's recovery, so at a shared instant the recovery runs first. *)

val crash_switch : t -> switch:int -> from_:float -> until:float -> unit
(** The switch is fail-silent during [[from_, until)): every transmission
    to or from it is blocked.  Protocol state survives (the model is a
    forwarding-plane outage, equivalent to all incident links being
    dead), so recovery needs no reboot.  [from_ <= until] required. *)

val partition : t -> side:int list -> from_:float -> until:float -> unit
(** During [[from_, until)), transmissions between a switch in [side]
    and a switch outside it are blocked in both directions. *)

val crash_windows : t -> (int * (float * float)) list
(** Scheduled crashes as [(switch, (from, until))], in scheduling order
    — lets a run schedule each switch's recovery at its window's close. *)

val has_windows : t -> bool
(** The plan schedules a crash or a partition window. *)

(** {1 Mediating transmissions} *)

val transmit :
  t ->
  src:int ->
  dst:int ->
  now:float ->
  base_delay:float ->
  float array ->
  int
(** [transmit t ~src ~dst ~now ~base_delay delays] decides the fate of
    one [src → dst] transmission submitted at [now] with fault-free
    delivery delay [base_delay] ([> 0]).  It writes the delay of every
    copy to deliver into [delays.(0)], then [delays.(1)], and returns
    the number of copies: [0] when lost or blocked, [1] normally, [2]
    when duplicated.  [delays] must have at least two slots; the slots
    past the returned count are left as they were.  Delays are
    [>= base_delay].  Counters (and the instrumented trace) are updated
    as a side effect.

    The draws happen in a fixed order — drop, duplicate, then for each
    copy its jitter, its reorder chance and its hold-back — so the
    decisions are a function of the seed and the call sequence alone.
    An uninstrumented or untraced plan allocates nothing here where
    {!Sim.Rng.float} is inlined (any build but dune's [dev] profile,
    which compiles every module [-opaque]); a fault's trace label is
    built only when the plan's trace is enabled.

    [now] is read only while {!reads_clock} holds: to test a crash or
    partition window, and to time a traced fault.  A plan with neither
    ignores it, so a caller that asks {!reads_clock} first may pass any
    time instead of reading its clock, as [Protocol]'s hook passes
    [0.0]: a jittered run then boxes no clock per transmission. *)

val reads_clock : t -> bool
(** Whether {!transmit} reads its [now]: {!has_windows}, or an
    enabled trace (see {!instrument}). *)

(** {1 Accounting} *)

type counters = {
  transmissions : int;  (** {!transmit} calls. *)
  delivered : int;  (** Copies actually scheduled for delivery. *)
  dropped : int;
  duplicated : int;
  reordered : int;
  blocked_crash : int;
  blocked_partition : int;
}

val counters : t -> counters
