(** The one reader of [dgmc-trace/1] captures.

    Every view of a trace is built here and returned as text: the run
    report ({!markdown}, {!json}) with its reconfiguration SLIs, and the
    analyzer modes {!trace_summary}, {!convergence}, {!divergence} and
    {!chain}.  They share one loader, one per-category count, one time
    span, one eviction note and one per-MC reduction of topology
    installs to each switch's final view. *)

val load : string -> (Sim.Trace.archive, string) result
(** Read a JSONL capture; [Error] reads ["PATH: line N: reason"] (or
    ["PATH: reason"] when the file cannot be read). *)

val default_gap : Sim.Trace.entry list -> float
(** Sessionization gap when the caller has none: 1/20 of the trace's
    simulated span, or [1.0] when the span is degenerate. *)

val dropped_note : Sim.Trace.archive -> string
(** The warning every view carries when the ring buffer evicted
    events. *)

(** {2 Reconfiguration SLIs}

    Each MC's trace entries are sessionized by a time gap (entries
    closer than [gap] belong to the same {e window}).  A window must
    contain an {e anchor} — a [Compute_started] with an
    ["event:"]-prefixed trigger, or a non-proposal MC-LSA origination
    announcing an event — and opens at its first anchor.  It closes at
    its last [Topology_installed] (or at its first anchor when it never
    converged, with latency [0.]).  Control cost is every MC-LSA
    origination from the anchor on plus every [Lsa_forwarded] copy of
    one, retransmissions included.  Entry order is irrelevant except
    between equal times, which keep it.  The window population yields
    a convergence-latency distribution over the converged windows and a
    control-cost distribution over all, with exact p50/p90/p99
    ({!Metrics.Stats.percentile}).  All inputs are simulated times, so
    summaries of deterministic runs are byte-identical across domain
    counts.  [gap] must be positive and finite. *)

(** {2 Run report} *)

val markdown : gap:float -> Sim.Trace.archive -> string
(** The report as markdown: trace inventory (with an eviction warning
    when the ring buffer dropped events), per-category counts, SLI
    window and distribution tables, a per-link fault-injection table
    (from [Fault_injected] events) and a link-health detection-latency
    section (from [Link_detected] events).  Trace-empty sections are
    omitted. *)

val json : gap:float -> Sim.Trace.archive -> string
(** The same report under schema [dgmc-report/1]: trace counters (plus
    a machine-readable [note] field if and only if events were
    evicted), the [sli] summary, [faults_by_link] ([[]] when the trace
    has no fault events) and [detection] ([null] without link-health
    events). *)

(** {2 Analyzer modes} *)

val trace_summary : Sim.Trace.archive -> string
(** Event counts by category and by switch, the time span, and per MC
    its install count, installing switches and distinct final views. *)

val convergence : Sim.Trace.archive -> string
(** Per MC, every topology install in trace order, then whether the
    installing switches' final views agree. *)

val divergence : Sim.Trace.archive -> string * bool
(** Per MC, the majority final view (most switches; ties to the
    lexicographically smaller view) and, for each switch that ends
    elsewhere, the first later install it missed, the LSA copies dropped
    towards it and its crash/recover times.  The flag is [true] when any
    MC diverged. *)

val chain : Sim.Trace.archive -> int -> (string, string) result
(** The causal ancestry of an event id, root first, one
    {!Sim.Trace.pp_entry} line each; [Error] when the id is not in the
    trace. *)
