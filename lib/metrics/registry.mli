(** Named counters and log-scale histograms with per-switch labels.

    A registry is a bag of metric cells keyed by [(name, switch)] — the
    [switch] label is optional, so the same name can exist both as a
    network-wide aggregate and per switch.  Counters are exact;
    histograms use geometric buckets with ratio [2^(1/8)] (any
    quantile is within ~4.4% relative error, exact min/max/sum/count are
    kept alongside, and quantile estimates are clamped into
    [\[min, max\]]).

    A layer counts a fact in a {!counter} handle.  A counter's value is
    the count of every handle listed under its key, so two runs
    recording into one registry sum as if they shared one cell.

    Cells are created on first use; using one name with two different
    metric kinds raises [Invalid_argument].  A registry is {e not}
    domain-safe and is pinned to the domain that created it: a recording
    call ({!observe} or {!bump} on one of its handles) from
    another domain raises [Invalid_argument] naming both domains.  Code
    that records as it runs must run on the owner; work spread over
    domains returns its results and the owner records them (as
    [bench/main.exe --json] observes the pool's per-task stats after
    the batch).

    {!snapshot} ordering is deterministic (sorted by name, then label),
    so rendered output is stable across runs and domain counts.

    The discipline mirrors [Sim.Trace]: {!disabled} is a shared registry
    that records nothing, so instrumented code records unconditionally
    and an uninstrumented run pays one branch per call. *)

type t

val disabled : t
(** A shared registry that drops everything.  {!observe} on it returns
    before the owner check and allocates nothing, and so does {!bump} on
    its handles, so it may be recorded into from any domain.  Its
    {!snapshot} is always empty. *)

val create : unit -> t

(** {2 Recording} *)

val observe : t -> ?switch:int -> string -> float -> unit
(** Add one sample to a histogram. *)

(** {2 Counter handles} *)

type counter

val counter : t -> ?switch:int -> string -> counter
(** A handle on the counter [name] (labelled [switch]): one int that
    its owner bumps and reads.  The registry lists it on its first
    {!bump}, so a handle never bumped leaves no key.  A handle from
    {!disabled} is private, and bumping it allocates nothing. *)

val bump : ?by:int -> counter -> unit
(** Add [by] (default [1]). *)

val count : counter -> int
(** This handle's own count, not its key's sum. *)

val per_switch : t -> int -> string -> counter array
(** [per_switch t n name]: [n] handles on [name], the [i]th labelled [i]. *)

val sum : counter array -> int
(** Their counts, added. *)

(** {2 Reading} *)

type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

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
