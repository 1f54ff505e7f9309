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
    # hello silence (keys: period grace detector=k:<n> reup damp=on|off
    # damp-penalty damp-suppress damp-reuse damp-half-life horizon)
    health period=0.5r detector=k:3 damp=on

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
    to [1r], [wave-period] to [period]), as do [health]'s [period],
    [grace], [damp-half-life] and [horizon].

    This module is the one parser of the format: {!directives} parses
    each line, {!parse} resolves the lines into a runnable {!t}, and
    [Check.Scenario_lint] replays the same lines for its semantic
    checks. *)

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

type churn_directive = {
  churn_mc : Dgmc.Mc_id.t;
  churn_members : int;
  churn_moves : int;
  churn_period : float * bool;  (** (value, round-denominated?). *)
  churn_start : float * bool;
  churn_waves : int;
  churn_wave_links : int;
  churn_wave_period : (float * bool) option;  (** [None]: one [period]. *)
  churn_seed : int;
}
(** A [churn] directive as written — times unresolved, since the round
    length needs the graph and regime. *)

val churn_events :
  graph:Net.Graph.t ->
  config:Dgmc.Config.t ->
  churn_directive ->
  (Events.t list, string) result
(** Resolve the directive's round-denominated times against the graph
    and regime and expand it with [Churn.generate] seeded by
    [churn_seed]: exactly the events {!parse} appends.  [Error] when the
    graph cannot host the expansion. *)

type health_directive = {
  h_period : float * bool;  (** (value, round-denominated?). *)
  h_grace : (float * bool) option;
  h_detector : int;  (** Missed hellos before down. *)
  h_reup : int option;
  h_damping : bool;
  h_damp_penalty : float;
  h_damp_suppress : float;
  h_damp_reuse : float;
  h_damp_half_life : (float * bool) option;  (** [None]: 4 rounds. *)
  h_horizon : (float * bool) option;  (** [None]: derived from the events. *)
}
(** A [health] directive as written — times unresolved. *)

val health_of_args :
  line:int -> string list -> (health_directive, string) result
(** Parse a [health] directive's [key=value] arguments (defaults:
    [period=0.5r], [detector=k:3], no damping).  Shared with
    the CLI's [--health] flag. *)

val last_event_time : Events.t list -> float
(** Time of the latest event, 0 when the list is empty — the anchor for
    {!health_config}'s derived horizon. *)

val health_config :
  graph:Net.Graph.t ->
  config:Dgmc.Config.t ->
  last_event:float ->
  health_directive ->
  Health.Config.t
(** Resolve round-denominated times against the graph and regime.  When
    no explicit horizon was given, it is placed past [last_event] by
    three detection bounds plus ten rounds of convergence slack. *)

type directive =
  | Graph of Net.Graph.t
  | Config of Dgmc.Config.t
  | Faults of Faults.Plan.spec * int  (** Fault spec and plan seed. *)
  | Mc of Dgmc.Mc_id.t
  | At of (float * bool) * Events.action
      (** (time, round-denominated?) and the event, whose switch and
          link are not yet checked against the graph. *)
  | Churn of churn_directive
  | Health of health_directive
(** One line of a script, parsed but not yet resolved against the graph
    and regime (which later lines may still set). *)

val directives : string -> (int * (directive, string) result) list
(** Every non-blank line's 1-based number with its directive, or the
    first problem on that line.  A malformed line does not stop the
    lines after it; [mc=] resolves against the MCs declared by earlier
    well-formed [mc] lines. *)

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
(** A join/leave switch must be a node of the graph and a link event's
    endpoints one of its edges. *)

val parse : string -> (t, string) result
(** Parse a script from its text.  The error is the first malformed
    line of {!directives}, else a missing [graph], else the first event
    {!check_target} rejects, else the first [churn] the graph cannot
    host — as ["line N: message"]. *)

val read_file : string -> (string, string) result
(** A file's contents; [Error] is the I/O failure. *)

val load : string -> (t, string) result
(** {!read_file}, then {!parse}. *)

val build : ?trace:Sim.Trace.t -> t -> Dgmc.Protocol.t
(** Create the protocol instance and schedule every event {e without}
    running — so callers can attach observers (e.g. [Check.Monitor])
    before the first transition, then [Dgmc.Protocol.run] it.
    [trace] is forwarded to {!Dgmc.Protocol.create}. *)

val run : t -> Dgmc.Protocol.t
(** Build the protocol instance, schedule every event, and run to
    quiescence. *)
