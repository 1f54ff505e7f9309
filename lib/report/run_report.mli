(** The one reader of [dgmc-trace/1] captures.

    Every view of a trace is built here and returned as text: the run
    report ({!markdown}, {!json}) with its reconfiguration episodes, and the
    analyzer modes {!trace_summary}, {!convergence}, {!divergence} and
    {!chain}.  They share one loader, one per-category count, one time
    span, one eviction note and one per-MC reduction of topology
    installs to each switch's final view. *)

val load : string -> (Sim.Trace.archive, string) result
(** Read a JSONL capture; [Error] reads ["PATH: line N: reason"] (or
    ["PATH: reason"] when the file cannot be read). *)

val dropped_note : Sim.Trace.archive -> string
(** The warning every view carries when the ring buffer evicted
    events. *)

(** {2 Reconfiguration SLIs}

    SLIs come in {e episodes}, read from the installed [C] stamps.  An
    {e event} is one local membership or link event: an MC, a switch
    [x] and [x]'s own component [k] of the stamp on its
    [Compute_started] (trigger ["event:..."]) or on the bare MC-LSA
    origination that announces it, at the earlier of the two.  It
    {e settles} at the first time every live installing switch of the
    MC (one with any install there, not left crashed at the trace's
    end) has installed a [C] with [C.(x) >= k]; one that never settles
    is unconverged.  An episode is a maximal set of events whose
    [time, settled] intervals overlap: its latency runs from its first
    event to its last settle, and its control cost counts every MC-LSA
    origination and every [Lsa_forwarded] copy of one inside it (to
    the trace's end when unconverged).  The latency distribution
    covers the converged episodes, the control distribution all, both
    with exact p50/p90/p99 ({!Metrics.Stats.percentile}).  An MC whose
    events have no install at all in the trace (its install records
    were evicted) cannot settle: its episodes read "no installs", count
    as neither converged nor unconverged, and the report warns with the
    retained and emitted counts.  All inputs are simulated times, so
    reports of deterministic runs are byte-identical across domain
    counts. *)

(** {2 Run report} *)

val markdown : Sim.Trace.archive -> string
(** The report as markdown: trace inventory (with an eviction warning
    when the ring buffer dropped events), per-category counts, the
    episode distributions and table (with a warning when some MC has no
    install), a per-link fault-injection table
    (from [Fault_injected] events) and a link-health detection-latency
    section (from [Link_detected] events).  Trace-empty sections are
    omitted. *)

val json : Sim.Trace.archive -> string
(** The same report under schema [dgmc-report/2]: trace counters (plus
    a machine-readable [note] field if and only if events were
    evicted), the [sli] summary with its [episodes] ([latency_s] is
    [null] for an unconverged or install-less one, and a [note] field
    if and only if some MC has no install), [faults_by_link] ([[]] when the
    trace has no fault events) and [detection] ([null] without
    link-health events). *)

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
