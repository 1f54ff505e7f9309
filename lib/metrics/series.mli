(** Ring-buffered, simulation-time-bucketed time series — the flight
    recorder's windowed view of a run.

    Where {!Registry} aggregates over a whole run, a [Series.t] keeps
    {e when} things happened: each sample is routed to the bucket
    [floor (time / bucket)] of its named series, and each
    bucket accumulates count / sum / min / max / last.  Consumers derive
    rates (count per bucket) or levels (last / max per bucket) as they
    see fit.

    A recorder resolves its key once into a {!handle} and records
    through it.  Storage is a ring of [cap] buckets per series,
    addressed by bucket index modulo [cap] and held as parallel
    columns (ints for the index and count, unboxed floats for the
    aggregates), allocated at the key's first sample: recording
    allocates nothing after that sample, old buckets are overwritten
    once the window wraps (counted per series as [evicted], never
    silently), and samples older than the retained window are dropped
    and counted as [late].

    The discipline mirrors [Sim.Trace]: {!disabled} is a shared
    singleton, call sites guard with [if Series.enabled s then ...], and
    {!record} on a handle of a disabled series is one branch with zero
    allocation.  Bucketing uses simulated time only, so recorded
    contents are byte-identical across [--domains] counts. *)

type t

val disabled : t
(** A shared series sink that drops everything. *)

val create : ?bucket:float -> ?cap:int -> unit -> t
(** [create ()] — [bucket] is the bucket width in simulated seconds
    (default [1.0], must be positive); [cap] the per-series ring size in
    buckets (default [512], must be at least 1). *)

val enabled : t -> bool
(** [true] unless the series is {!disabled}.  Guard sample construction
    with this so the disabled hot path stays one branch. *)

type handle

val handle : t -> string -> handle
(** The series [name]: every handle on one name records into the same
    ring.  The series lists a name from its first sample on, so a
    handle never recorded into leaves no line.  A handle of {!disabled}
    records nothing. *)

val record : handle -> time:float -> float -> unit
(** Record one sample at a simulated time.  No-op on a handle of
    {!disabled}; allocates nothing after the key's first sample. *)

(** {2 Reading} *)

type point = {
  p_bucket : int;
  p_time : float;  (** Bucket start time, [p_bucket * bucket]. *)
  p_count : int;
  p_sum : float;
  p_min : float;
  p_max : float;
  p_last : float;
}

type line = {
  l_name : string;
  l_evicted : int;  (** Buckets overwritten after the window wrapped. *)
  l_late : int;  (** Samples older than the retained window, dropped. *)
  l_points : point list;  (** Retained buckets, oldest first. *)
}

val lines : t -> line list
(** Every series, sorted by name then bucket index —
    deterministic regardless of insertion order. *)
