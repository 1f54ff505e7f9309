(** Discrete-event simulation engine.

    The engine advances a virtual clock by running posted callbacks in
    time order (FIFO among equal times).  It replaces the CSIM package the
    paper's study used: protocol entities are modelled as callbacks that
    post further work, rather than as coroutines, which is sufficient
    because D-GMC switches only react to message arrivals, local events and
    computation completions.

    The engine is the calendar.  It keeps the scheduled entries in one
    store of parallel arrays — the times unboxed in a [Float.Array],
    the insertion numbers, one array of entries and one of [int]
    arguments — so placing or moving an entry allocates nothing once
    the store has grown.  The store holds a binary min-heap ordered by
    (time, insertion order) and a few FIFO lanes, each keyed by one
    exact delay.  The paper's timing model charges every hop one fixed
    [t_hop] and every topology computation one fixed [Tc], so nearly
    every entry is placed a few fixed delays ahead: a {!post} whose
    delay equals a lane's key joins that lane's tail in O(1), and one
    that finds no such lane re-keys an empty lane to its delay.  Any
    other delay, and every {!post_at}, goes to the heap in O(log n).

    The heap moves only unboxed keys: a time, an insertion number and
    the index of the store slot (its payload slot) that holds the entry
    and its argument.  An entry stays in its payload slot from the push
    until it is popped, so a sift writes no boxed value and pays no
    write barrier, and jittered delays, which find no lane, cost a few
    key moves per level.  Freed payload slots are reused, last first.

    The lanes are exact.  For a fixed delay [d] the clock never
    decreases and IEEE addition is monotone, so [now +. d] never
    decreases, and insertion numbers always increase: each lane is
    already sorted by (time, insertion order).  {!run} takes the least
    of the heap root and the lane heads, which is the heap's own order
    entry for entry.

    Every entry is a {!post}ed {!callback}, built once by its owner
    and run with the [int] each post passes it; one insertion counter
    orders ties.  An owner whose timers carry data posts them through a
    {!Jobs} table.  {!pending} is O(1).

    No entry is taken back.  An owner that must call off a timer gives
    its callback a liveness check on the [int] argument (typically a
    slot id packed with a generation number the owner bumps) and, when
    it makes a posted timer stale, {!retire}s it at once.  A stale
    entry stays in the calendar until it surfaces and is then dropped
    without a trace: it does not move the clock, count in
    {!events_executed}, use up [run ~max_events]' budget or run the
    probe.

    The engine also holds the run's two telemetry sinks, so every layer
    built over it — switches, flooding, the fault plan, the invariant
    monitor — records into the same trace and registry without being
    handed them separately.

    Typical use:
    {[
      let eng = Engine.create () in
      let tick = Engine.callback (fun i -> ...) in
      Engine.post eng ~delay:1.0 tick 0;
      Engine.run eng
    ]} *)

type t

type callback
(** A function the engine can run with an [int] argument, for {!post},
    with an optional liveness check.  Build it once and post it as often
    as needed. *)

val create : ?trace:Trace.t -> ?metrics:Metrics.Registry.t -> unit -> t
(** A fresh engine with clock at [0.0].  [trace] and [metrics] (default
    {!Trace.disabled} and {!Metrics.Registry.disabled}) are the run's
    sinks: everything posted on this engine records into them. *)

val trace : t -> Trace.t
(** The run's trace, as given to {!create}. *)

val metrics : t -> Metrics.Registry.t
(** The run's registry, as given to {!create}. *)

val now : t -> float
(** Current virtual time.  The engine keeps its clock unboxed, so
    moving it allocates nothing; [now] boxes it on demand, at most once
    per time (2 words), and returns that box until the clock moves.  A
    caller on a per-transmission path that needs no time should not
    ask (see [Faults.Plan.reads_clock]). *)

val callback : ?live:(int -> bool) -> (int -> unit) -> callback
(** [callback ?live f] wraps [f] for {!post}.  It allocates three
    words (five with [live]); build one per owner, not per post.  With
    [live], an entry whose argument [live] rejects when it surfaces is
    stale: [f] does not run and the entry leaves no trace (see the
    header).  Its owner must {!retire} it when it makes it stale. *)

val post : t -> delay:float -> callback -> int -> unit
(** [post t ~delay cb arg] runs [cb]'s function on [arg] at [now t +.
    delay].  [delay] must be non-negative and finite, and so must the
    sum; otherwise raises [Invalid_argument].  A post returns nothing to keep:
    the caller keeps whatever state [arg] names, and calls a post off
    with [cb]'s liveness check and {!retire}.  Once the calendar's store
    has grown to the run's depth, a post allocates nothing: the time is
    computed and stored unboxed inside [post], which is inlined into its
    callers in builds with cross-module inlining (every dune profile but
    dev, which compiles each module [-opaque]; there a computed [delay]
    is boxed at the call, two words). *)

val post_at : t -> time:float -> callback -> int -> unit
(** [post_at t ~time cb arg] is {!post} at absolute [time], which must
    be finite and not in the engine's past; otherwise raises
    [Invalid_argument]. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] is a one-shot post: it builds a callback
    around [f] and posts it once, under {!post}'s rules.  The benchmark
    ledger's hold model places its entries this way; an owner builds
    its callbacks once instead. *)

val retire : t -> unit
(** [retire t] tells the engine that its caller has just made one of
    its posted entries stale: its callback's liveness check will reject
    it.  {!pending} drops by one at once.  Call it once per entry made
    stale before it surfaced, never for one that has run; raises
    [Invalid_argument] when nothing is pending. *)

val pending : t -> int
(** Number of posts neither run nor retired.  O(1). *)

val events_executed : t -> int
(** Total number of entries executed since creation; a stale entry is
    not counted. *)

val run : ?max_events:int -> t -> unit
(** Execute posts in order until the calendar drains or [max_events]
    of them have run.  The clock is left at the last executed post's
    time. *)

val set_probe : t -> (unit -> unit) -> unit
(** Install a telemetry probe invoked after every executed event, with
    the clock still at that event's time.  At most one probe is
    installed (a second call replaces the first); with none installed
    the per-event cost is a single pattern-match branch.  The probe
    observes — it must not post or retire events, and a probe
    that raises aborts the run. *)

val clear_probe : t -> unit
(** Remove the installed probe, if any. *)
