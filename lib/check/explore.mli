(** Bounded interleaving model checker for D-GMC.

    Explores {e every} causally-possible ordering of LSA deliveries and
    computation completions that a {!Harness} scenario can produce,
    checking the {!Invariant} catalogue at each reached state:
    per-state laws and C-monotonicity on every transition, the terminal
    laws (agreement, ground truth, quiescence) at every terminal state.

    {b One walk, two orders.}  {!walk} expands a frontier of states in
    fixed-width waves, deduplicating by the canonical {!Harness.digest}.
    The frontier keeps action prefixes, not states: each popped state is
    rebuilt once by replaying its prefix from the initial state (sound
    because the harness is deterministic for a fixed action sequence),
    and each of its successors is a {!Harness.copy} of it with one
    action applied.  Its
    caller picks the frontier order and which violations stop it: the
    test suite's exhaustive runs pop in admission order (breadth-first,
    so the first violation comes with a minimal-length trace) and stop
    at any law; {!Search.forward} pops by a violation-distance heuristic
    and stops at its target.

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

type found = {
  laws : string list;  (** The hit's violated laws, sorted, deduped. *)
  message : string;  (** The hit's violations, rendered. *)
  trace : string list;
      (** Human-readable action sequence from the post-race initial
          state to the violating state (minimal under a breadth-first
          order). *)
  depth : int;  (** Actions from the post-race state. *)
  state_digest : string;  (** {!Harness.digest} of the violating state. *)
}

type outcome = {
  states : int;  (** Distinct states visited. *)
  transitions : int;  (** Edges expanded. *)
  terminals : int;  (** Distinct terminal states reached. *)
  other_violations : int;
      (** Violating states whose laws were not a hit: counted, reported
          by {!pp_outcome}, but not expanded. *)
  complete : bool;
      (** Whole reachable space covered — no bound was hit and no
          violation cut the search short. *)
  found : found option;  (** The first hit, if any. *)
}

val walk :
  hit:(Invariant.violation -> bool) ->
  order:(depth:int -> digest:string -> Harness.t -> int list * string) ->
  max_states:int ->
  domains:int ->
  scenario ->
  outcome
(** The frontier loop.  The harness is deterministic for a fixed action
    sequence, so a frontier entry is an action prefix: each domain
    settles the scenario once (the calling domain once per walk, a
    spawned worker once per wave) and reaches each popped state on a
    {!Harness.copy} of that base, which must digest as a fresh replay of
    the prefix does.  Only the reported state's trace is rendered
    ({!Harness.describe}), by one more replay.

    A reached state's key is its [order] (priority
    ints compared lexicographically, then the tie string) followed by
    its admission number; the walk pops the 8 smallest keys, expands
    them as pure tasks over a {!Runner.Pool} of [domains],
    and merges the edges in wave order.  A state whose violations
    include a [hit] stops the walk; one with only other violations is
    counted and not expanded.  [max_states] alone bounds the walk: a
    state admitted at depth [d] has [d] admitted ancestors, so its depth
    is below the state count, and the walk stops at the state that
    passes the bound, so a truncated walk counts [max_states + 1]
    states.  The wave width does not depend on
    [domains], so the outcome is byte-identical at any domain count.
    [Invalid_argument] if the setup itself cannot settle. *)

val pp_found : Format.formatter -> found -> unit

val pp_outcome : Format.formatter -> outcome -> unit
