(** Run reports: trace → SLI reduction and markdown/JSON rendering.

    This module holds the protocol-specific adapter that
    {!Metrics.Sli} deliberately lacks: which [dgmc-trace/1] events
    anchor a reconfiguration window (local membership/link events),
    which count as control cost (MC-LSA originations and their per-link
    forwards, retransmissions included), and which close it (topology
    installs).  On top of it, {!markdown} and {!json} render a full run
    report from a trace archive. *)

val sli_of_trace : Sim.Trace.entry list -> Metrics.Sli.obs list
(** Reduce trace entries (oldest first, as {!Sim.Trace.entries} and
    archives yield them) to SLI observations in the same order.
    Anchors: [Compute_started] with an ["event:"]-prefixed trigger, and
    non-proposal MC-LSA originations announcing an event.  Control: MC
    originations plus every [Lsa_forwarded] copy of one.  Installs:
    [Topology_installed]. *)

val default_gap : Sim.Trace.entry list -> float
(** Sessionization gap when the caller has none: 1/20 of the trace's
    simulated span, or [1.0] when the span is degenerate. *)

val span : Sim.Trace.entry list -> float
(** Simulated time covered: last entry time minus first, [0.] when
    empty. *)

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
    evicted), the {!Metrics.Sli.to_json} summary, [faults_by_link]
    ([[]] when the trace has no fault events) and [detection] ([null]
    without link-health events). *)
