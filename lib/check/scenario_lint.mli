(** Static analysis of [.dgmc] scenario scripts.

    The linter reads a script through {!Workload.Script.directives}, the
    one parser of the format, so it accepts and rejects exactly the
    lines {!Workload.Script.parse} does, with the same messages.  Where
    [parse] stops at the first malformed line, the linter reports the
    first problem on {e every} malformed line, then adds semantic checks
    the parser does not make: it replays membership and link state over
    the timeline of the lines that did parse, without running anything.

    {b Errors} (the scenario is wrong and {!Workload.Script} would
    either reject it or simulate something unintended):
    - every line {!Workload.Script.directives} rejects: unknown
      directives, events or options, stray non-[key=value] tokens,
      malformed arguments, a graph its generator rejects or with fewer
      than two switches, an MC id used before (or without) its [mc]
      declaration or declared twice;
    - a missing [graph] directive (when every line parses);
    - a [join]/[leave] switch id outside the graph's node range, or a
      [linkdown]/[linkup] on a link the graph does not have
      ({!Workload.Script.check_target});
    - a [churn] expansion the graph cannot host, or a [health]
      directive that resolves to an invalid configuration;
    - a [leave] with no preceding [join] for that switch and MC;
    - two events identical in resolved time and action.

    {b Warnings} (legal but suspicious):
    - event times that go backwards in file order;
    - [linkdown] on an already-down link / [linkup] on an already-up
      link at that point of the timeline;
    - an MC declared but never used by any event;
    - duplicate [graph]/[config]/[faults]/[health] directives (the later
      one wins), and a [faults] plan that injects nothing;
    - a [health] directive with no link events to detect. *)

type severity = Error | Warning

type diagnostic = { line : int; severity : severity; message : string }
(** [line] is 1-based; [0] means the file as a whole. *)

val lint : string -> diagnostic list
(** Analyse script text; diagnostics sorted by line. *)

val errors : diagnostic list -> int

val warnings : diagnostic list -> int

val render : ?file:string -> diagnostic -> string
(** ["file:line: error: message"] — the conventional compiler format. *)
