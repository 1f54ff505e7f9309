(** Discrete-event simulation engine.

    The engine advances a virtual clock by executing scheduled thunks in
    time order (FIFO among equal times).  It replaces the CSIM package the
    paper's study used: protocol entities are modelled as callbacks that
    schedule further work, rather than as coroutines, which is sufficient
    because D-GMC switches only react to message arrivals, local events and
    computation completions.

    The engine is the calendar: it keeps the scheduled entries in its
    own binary min-heap ordered by (time, insertion order), stored as
    parallel arrays — the times unboxed in a [Float.Array], the
    insertion numbers, one array of entries and one of [int] arguments
    — so placing or moving an entry allocates nothing.  An entry is
    either a {!schedule}d action, which is its own {!handle}, or a
    {!post}ed {!callback}, built once by its owner and run with the
    [int] each post passes it.  Both kinds share one insertion counter,
    so ties run in insertion order across them.  Scheduling is
    O(log n), {!cancel} is O(1) (a cancelled action stays in the heap
    and is dropped when it reaches the top, but what it captured is
    freed at once), and {!pending} is O(1).

    The engine also holds the run's two telemetry sinks, so every layer
    built over it — switches, flooding, the fault plan, the invariant
    monitor — records into the same trace and registry without being
    handed them separately.

    Typical use:
    {[
      let eng = Engine.create () in
      ignore (Engine.schedule eng ~delay:1.0 (fun () -> ...));
      Engine.run eng
    ]} *)

type t

type handle
(** A scheduled action, for {!cancel}: three words, the entry the heap
    holds. *)

type callback
(** A function the engine can run with an [int] argument, for {!post}.
    Build it once and post it as often as needed. *)

val create : ?trace:Trace.t -> ?metrics:Metrics.Registry.t -> unit -> t
(** A fresh engine with clock at [0.0].  [trace] and [metrics] (default
    {!Trace.disabled} and {!Metrics.Registry.disabled}) are the run's
    sinks: everything scheduled on this engine records into them. *)

val trace : t -> Trace.t
(** The run's trace, as given to {!create}. *)

val metrics : t -> Metrics.Registry.t
(** The run's registry, as given to {!create}. *)

val now : t -> float
(** Current virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].  [delay] must be
    non-negative and finite, and so must the sum; otherwise raises
    [Invalid_argument]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time], which must be
    finite and not in the engine's past; otherwise raises
    [Invalid_argument]. *)

val callback : (int -> unit) -> callback
(** [callback f] wraps [f] for {!post}.  It allocates two words; build
    one per owner, not per post. *)

val post : t -> delay:float -> callback -> int -> unit
(** [post t ~delay cb arg] runs [cb]'s function on [arg] at [now t +.
    delay], under the same rules for [delay] as {!schedule}
    ([Invalid_argument] otherwise).  A post cannot be cancelled and
    returns no handle; the caller keeps whatever state [arg] names.
    Once the calendar's arrays have grown to the run's depth, a post
    allocates nothing: the time is computed and stored unboxed inside
    [post], which is inlined into its callers in builds with
    cross-module inlining (every dune profile but dev, which compiles
    each module [-opaque]; there a computed [delay] is boxed at the
    call, two words). *)

val cancel : handle -> unit
(** Cancel a pending action.  Idempotent; a no-op if it already ran. *)

val pending : t -> int
(** Number of entries still to run: posts and scheduled actions not run
    and not cancelled.  O(1). *)

val events_executed : t -> int
(** Total number of entries executed since creation, posts included;
    a cancelled action is not counted. *)

val run : ?max_events:int -> t -> unit
(** Execute scheduled actions and posts in order until the calendar
    drains or [max_events] of them have run.  The clock is left at the last
    executed action's time. *)

val set_probe : t -> (unit -> unit) -> unit
(** Install a telemetry probe invoked after every executed event, with
    the clock still at that event's time.  At most one probe is
    installed (a second call replaces the first); with none installed
    the per-event cost is a single pattern-match branch.  The probe
    observes — it must not schedule or cancel events, and a probe that
    raises aborts the run. *)

val clear_probe : t -> unit
(** Remove the installed probe, if any. *)

