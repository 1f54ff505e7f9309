(** Scenario scripts: drive a simulation from a plain-text description.

    The CLI's [script] subcommand runs files in this format; tests and
    bug reports can thus describe a reproducible scenario without
    writing OCaml.  Format, one directive per line ([#] comments and
    blank lines ignored):

    {v
    # network and regime
    graph waxman 30 seed=5        # or: grid R C | ring N | line N | star N
    config atm                    # or: wan

    # optional fault plan; its presence switches flooding to Reliable
    faults drop=0.3 dup=0.1 reorder=0.2 jitter=0.5 seed=7

    # optional link-health layer: switches detect link events through
    # hello silence (keys: period detector=k:<n> damp-suppress; a
    # damp-suppress key turns flap damping on)
    health period=0.5r detector=k:3 damp-suppress=2

    # connections: id and type
    mc 1 symmetric                # or: receiver-only | asymmetric

    # timed events; time is seconds, or rounds with an 'r' suffix
    at 0    join 3 mc=1           # role defaults by MC type
    at 0.1r join 5 mc=1 role=sender
    at 2r   leave 3 mc=1
    at 3r   linkdown 2 7
    at 4r   linkup 2 7

    # mobility churn: walkers whose attachment point roams, link-fade
    # waves that always heal ({!Churn}); expands into ordinary events
    churn mc=1 members=3 moves=4 period=1r waves=2 wave-links=1 wave-period=3r seed=9
    v}

    Times with the [r] suffix are multiples of the protocol round
    ([Tf + Tc]) of the scripted graph and regime; [churn]'s [period],
    [start] and [wave-period] take the same literals ([period] defaults
    to [1r], [wave-period] to [period]), as does [health]'s [period].

    This module is the one reader of the format: one pass parses each
    line and resolves the lines against the graph and regime; {!lint}
    reports every problem that pass finds, and {!load} returns the
    runnable {!t} exactly when none of them is an error. *)

type t = {
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  mcs : Dgmc.Mc_id.t list;
  events : Events.t list;
  faults : Faults.Plan.spec option;
      (** When set, {!build} runs the network under this fault plan with
          [Reliable] flooding (overriding [config.flood_mode]). *)
  fault_seed : int;  (** Seed of the fault plan's random stream. *)
  health : Health.Config.t option;
      (** When set (a [health] directive), {!build} enables the
          link-health layer: scripted link events become ground truth
          the hello detectors must discover. *)
}

val graph_of_args : line:int -> string list -> (Net.Graph.t, string) result
(** Build the graph a [graph] directive's arguments denote (e.g.
    [["ring"; "6"]]).  A size the generator rejects, or a graph of fewer
    than two switches, is an [Error]. *)

val health_of_spec :
  graph:Net.Graph.t ->
  config:Dgmc.Config.t ->
  events:Events.t list ->
  string ->
  (Health.Config.t, string) result
(** The link-health configuration a [health] directive's options
    denote, given as one string of [key=value] options separated by
    commas or spaces ([""] for every default: [period=0.5r],
    [detector=k:3], no damping; [damp-suppress] turns on a damper that
    suppresses at that penalty and has penalty 1, reuse threshold 0.75
    and a half-life of 4 rounds).  Round-denominated times resolve
    against the graph and regime; the layer stops past the last of
    [events] by three detection bounds plus ten rounds of convergence
    slack.  The result is validated: this is how
    {!load} resolves a [health] line, and how the CLI's [--health] and
    the fuzzer's health band build theirs. *)

val action_of_string :
  mcs:Dgmc.Mc_id.t list -> string -> (Events.action, string) result
(** Read one event as an [at] line writes it after the time, e.g.
    ["join 3 mc=1 role=sender"], ["leave 3 mc=1"], ["linkdown 2 7"]:
    the same rules, defaults and messages as a script line.  [mc=]
    resolves against [mcs]; a join without [role=] takes its MC kind's
    default (a symmetric member is [both], any other a [receiver]);
    an unknown verb or option is an [Error] naming it. *)

val action_to_string : Events.action -> string
(** Inverse of {!action_of_string}: joins always spell out their role,
    so [action_of_string ~mcs (action_to_string a)] is [Ok a] whenever
    [a]'s MC is in [mcs]. *)

val check_target : Net.Graph.t -> Events.action -> (unit, string) result
(** [Error] unless a join's or leave's switch is a node of the graph,
    or a link event's endpoints a link of it. *)

type severity = Error | Warning

type diagnostic = { line : int; severity : severity; message : string }
(** [line] is 1-based; [0] means the file as a whole. *)

val lint : string -> diagnostic list
(** Every problem in a script's text, sorted by line, without running
    anything.  Each malformed line reports its first problem; the lines
    that did parse are then resolved and their timeline replayed
    ({!Events.step}).

    {b Errors} (the script is wrong; {!load} rejects it):
    - every malformed line: unknown directives, events or options, stray
      non-[key=value] tokens, malformed arguments, a graph its generator
      rejects or with fewer than two switches, an MC id used before (or
      without) its [mc] declaration or declared twice;
    - a missing [graph] directive (when every line parses);
    - a [join]/[leave] switch id outside the graph's node range, or a
      [linkdown]/[linkup] on a link the graph does not have;
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

val errors : diagnostic list -> int

val warnings : diagnostic list -> int

val render : file:string -> diagnostic -> string
(** ["file:line: error: message"] — the conventional compiler format. *)

val read_file : string -> (string, string) result
(** A file's contents; [Error] is the I/O failure. *)

val load : string -> (t, string) result
(** {!read_file}, then parse and resolve the script: [Ok] exactly when
    {!lint} reports no error, else the first error in line order as
    ["line N: message"] (a missing [graph] has no line). *)

val build :
  ?trace:Sim.Trace.t -> ?metrics:Metrics.Registry.t -> t -> Dgmc.Protocol.t
(** Create the protocol instance and schedule every event {e without}
    running — so callers can attach observers (e.g. [Check.Monitor])
    before the first transition, then [Dgmc.Protocol.run] it.
    [trace] and [metrics] are forwarded to {!Dgmc.Protocol.create}. *)
