(** Bounded interleaving model checker for D-GMC.

    Explores {e every} causally-possible ordering of LSA deliveries and
    computation completions that a {!Harness} scenario can produce,
    checking the {!Invariant} catalogue at each reached state:
    per-state laws and C-monotonicity on every transition, the terminal
    laws (agreement, ground truth, quiescence) at every terminal state.

    {b Exploration.}  Breadth-first, so the first violation
    found comes with a minimal-length counterexample trace.  States are
    deduplicated by their canonical {!Harness.digest}; since
    {!Dgmc.Switch.t} is not cloneable, each state is reconstructed by
    replaying its action prefix from the initial state (sound because
    the harness is deterministic for a fixed action sequence).

    {b Scenario shape.}  [setup] events are injected and deterministically
    drained first ({!Harness.settle}) to reach a converged base state;
    [race] events are then injected {e simultaneously} and the resulting
    in-flight message multiset is explored exhaustively. *)

type scenario = {
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  setup : Harness.event list;  (** Injected and settled before the race. *)
  race : Harness.event list;  (** Injected concurrently, then explored. *)
}

type violation = {
  message : string;  (** The violated laws, rendered. *)
  trace : string list;
      (** Human-readable action sequence from the post-race initial
          state to the violating state (minimal under BFS). *)
}

type outcome = {
  states : int;  (** Distinct states visited. *)
  transitions : int;  (** Edges expanded. *)
  terminals : int;  (** Distinct terminal states reached. *)
  complete : bool;
      (** Whole reachable space covered — no bound was hit and no
          violation cut the search short. *)
  violation : violation option;  (** First violation found, if any. *)
}

val build : scenario -> Harness.action list -> Harness.t * string list
(** Materialise the state reached by an action prefix: create the
    harness, inject and settle [setup], inject [race], then replay the
    prefix, collecting each action's {!Harness.describe} rendering.
    Deterministic — two builds of the same prefix are digest-identical —
    which is what lets both this checker and {!Search} substitute replay
    for cloning. *)

val check_state : Harness.t -> Invariant.violation list
(** The per-state law catalogue ({!Invariant.check_switch}) over every
    switch — the check applied at each visited state by both this
    checker and {!Search}. *)

val step : Harness.t -> Harness.action -> string * Invariant.violation list
(** [step h act] applies [act] to [h] and checks the per-edge laws:
    {!check_state} on the successor plus {!Invariant.check_monotone} of
    every switch across the action.  Returns the action's
    {!Harness.describe} rendering (taken before it is applied) with the
    violations.  Every explored edge of this checker and {!Search} goes
    through here. *)

val check_terminal : Harness.t -> Invariant.violation list
(** The terminal laws at a state with nothing enabled:
    {!Dgmc.Terminal.check} against the harness's ground truth plus
    {!Invariant.check_health_terminal} over its suppressed links. *)

val run :
  ?max_states:int ->
  ?max_depth:int ->
  scenario ->
  outcome
(** Explore the scenario breadth-first.  Defaults: [max_states = 200_000],
    [max_depth = 10_000].  The per-state invariants are also checked on
    the settled base state before the race is injected
    ([Invalid_argument] if the setup itself cannot settle).

    No partial-order reduction is applied: the state space is covered in
    full, up to the interchangeability dedup of {!Harness.enabled} and
    the canonical-digest dedup of states (both of which only merge
    provably indistinguishable successors). *)

val pp_outcome : Format.formatter -> outcome -> unit
