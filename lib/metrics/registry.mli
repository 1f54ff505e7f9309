(** Named counters and log-scale histograms with per-switch labels.

    A registry is a bag of metric cells keyed by [(name, switch)] — the
    [switch] label is optional, so the same name can exist both as a
    network-wide aggregate and per switch.  Counters are exact;
    histograms use geometric buckets with ratio [2^(1/8)] (any
    quantile is within ~4.4% relative error, exact min/max/sum/count are
    kept alongside, and quantile estimates are clamped into
    [\[min, max\]]).

    Cells are created on first use; using one name with two different
    metric kinds raises [Invalid_argument].  A registry is {e not}
    domain-safe and is pinned to the domain that created it: a recording
    call ({!incr}, {!observe}) from another domain raises
    [Invalid_argument] naming both domains.  Code that records as it
    runs must run on the owner; work spread over domains returns its
    results and the owner records them (as [bench/main.exe --json]
    observes the pool's per-task stats after the batch).

    {!snapshot} ordering is deterministic (sorted by name, then label),
    so rendered output is stable across runs and domain counts.

    The discipline mirrors [Sim.Trace]: {!disabled} is a shared registry
    that records nothing, so instrumented code records unconditionally
    and an uninstrumented run pays one branch per call. *)

type t

val disabled : t
(** A shared registry that drops everything.  {!incr} and {!observe} on
    it return before the owner check and allocate nothing, so it may be
    recorded into from any domain.  It always reads as empty. *)

val create : unit -> t

val is_empty : t -> bool

(** {2 Recording} *)

val incr : t -> ?switch:int -> ?by:int -> string -> unit
(** Bump a counter (default [by = 1]). *)

val observe : t -> ?switch:int -> string -> float -> unit
(** Add one sample to a histogram. *)

(** {2 Reading} *)

val counter_value : t -> ?switch:int -> string -> int
(** [0] for a counter that was never bumped. *)

type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

val histogram_stats : t -> ?switch:int -> string -> histogram option

val quantile : t -> ?switch:int -> string -> float -> float option
(** [quantile t name q] for [q] in [\[0, 1\]]; [None] when the histogram
    is missing or empty. *)

(** {2 Snapshots and rendering} *)

type key = { name : string; switch : int option }

type snapshot = {
  counters : (key * int) list;
  histograms : (key * histogram) list;
}

val snapshot : t -> snapshot
(** Deterministically sorted by (name, label). *)

val snapshot_json : snapshot -> string
(** A JSON object [{"counters": [...], "histograms": [...]}] — embedded by {!Bench} as the [metrics] section of
    [dgmc-bench/1]. *)
