(** Ring-buffered, simulation-time-bucketed time series — the flight
    recorder's windowed view of a run.

    Where {!Registry} aggregates over a whole run, a [Series.t] keeps
    {e when} things happened: each sample is routed to the bucket
    [floor (time / bucket_width)] of its (name, switch) series, and each
    bucket accumulates count / sum / min / max / last.  Consumers derive
    rates (count per bucket) or levels (last / max per bucket) as they
    see fit.

    Storage is a pre-allocated ring of [cap] buckets per series,
    addressed by bucket index modulo [cap]: recording allocates nothing
    after a key's first sample, old buckets are overwritten once the
    window wraps (counted per series as [evicted], never silently), and
    samples older than the retained window are dropped and counted as
    [late].

    The discipline mirrors [Sim.Trace]: {!disabled} is a shared
    singleton, call sites guard with [if Series.enabled s then ...], and
    {!add} on a disabled series is one branch with zero allocation.
    Bucketing uses simulated time only, so recorded contents are
    byte-identical across [--domains] counts. *)

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

val bucket_width : t -> float

val bucket_index : t -> float -> int
(** The bucket a sample at the given time lands in:
    [floor (time / bucket_width)]. *)

val add : t -> ?switch:int -> name:string -> time:float -> float -> unit
(** Record one sample at a simulated time.  No-op on {!disabled}. *)

(** {2 Reading} *)

type point = {
  p_bucket : int;
  p_time : float;  (** Bucket start time, [p_bucket * bucket_width]. *)
  p_count : int;
  p_sum : float;
  p_min : float;
  p_max : float;
  p_last : float;
}

type line = {
  l_name : string;
  l_switch : int option;
  l_evicted : int;  (** Buckets overwritten after the window wrapped. *)
  l_late : int;  (** Samples older than the retained window, dropped. *)
  l_points : point list;  (** Retained buckets, oldest first. *)
}

val lines : t -> line list
(** Every series, sorted by (name, switch label) then bucket index —
    deterministic regardless of insertion order. *)
