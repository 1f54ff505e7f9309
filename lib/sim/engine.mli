(** Discrete-event simulation engine.

    The engine advances a virtual clock by executing scheduled thunks in
    time order (FIFO among equal times).  It replaces the CSIM package the
    paper's study used: protocol entities are modelled as callbacks that
    schedule further work, rather than as coroutines, which is sufficient
    because D-GMC switches only react to message arrivals, local events and
    computation completions.

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

type handle = Event_queue.handle

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
    non-negative and finite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time], which must not be
    in the engine's past. *)

val cancel : handle -> unit
(** Cancel a pending action.  No-op if it already ran. *)

val pending : t -> int
(** Number of actions still scheduled. *)

val events_executed : t -> int
(** Total number of actions executed since creation. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Execute scheduled actions in order until the calendar drains, the
    clock would pass [until], or [max_events] actions have run.  When
    stopped by [until], the clock is left at [until] and later events
    remain pending. *)

val step : t -> bool
(** Execute the single next action.  Returns [false] if none was pending. *)

val set_probe : t -> (unit -> unit) -> unit
(** Install a telemetry probe invoked after every executed event, with
    the clock still at that event's time.  At most one probe is
    installed (a second call replaces the first); with none installed
    the per-event cost is a single pattern-match branch.  The probe
    observes — it must not schedule or cancel events, and a probe that
    raises aborts the run. *)

val clear_probe : t -> unit
(** Remove the installed probe, if any. *)

