(** Guided forward/backward fault-scenario search.

    {!Explore} covers a scenario's whole interleaving space; that is the
    right tool for proofs but the wrong one for {e finding} a violation
    quickly, and it says nothing about {e which faults} to inject in the
    first place.  This module adds both directions of the systematic
    search that Helmy–Estrin's protocol-testing methodology prescribes
    (see PAPERS.md), on top of the same {!Harness} event model and the
    same deduped state graph:

    {b Forward} ({!forward}): {!Explore.walk} from an initial topology
    toward a violation of a {!target} invariant, in best-first order.
    The frontier is ordered by a violation-distance heuristic: the
    primary key is {!Harness.pending_count} — a provable, consistent
    lower bound on the actions separating the state from any terminal
    state, where the agreement laws are checked — and ties break toward
    states with more divergence evidence (disagreeing per-MC
    installed-state fingerprint classes, then resynchronisation
    sessions in flight), then toward shallower states, then
    by digest.  The walk, its digest dedup and its outcome are those of
    an exhaustive breadth-first {!Explore.walk}, so with no bound hit an
    empty-handed forward search is as conclusive as an exhaustive one,
    with the same counts.

    {b Backward} ({!backward}): from a target invariant (a known
    violation's law, optionally narrowed to an MC kind), search for a
    {e minimal} fault sequence — join/leave placement, link-down/up,
    crash/recover timing — that reproduces it.  Sequences are
    enumerated shortest-first over the well-formed event alphabet
    (leaves follow joins, recovers follow crashes, link-ups follow
    link-downs, and every candidate ends healed so the terminal laws
    are a fair demand; a partition is the set of link-downs that cut
    it), and each candidate is checked by a bounded forward search, so
    the first hit is minimal by construction.  The result renders in
    {!Check.Fuzz}'s shrunk-workload line format ({!pp_backward}) for a
    deterministic repro.

    {b Determinism.}  Both modes shard work over a {!Runner.Pool} in
    {e fixed-size} waves/chunks whose composition does not depend on the
    domain count, and merge results in enumeration order; outcomes are
    byte-identical at any [domains]. *)

(** {1 Targets} *)

type target = {
  law : string;
      (** Law-name prefix to hunt, e.g. ["agreement"] matches both
          [agreement-members] and [agreement-topology]; ["any"] matches
          every law. *)
  kind : Dgmc.Mc_id.kind option;
      (** When set, only violations attributed to an MC of this kind
          match. *)
}

val target_of_string : string -> (target, string) result
(** Parse ["law"] or ["law\@kind"] with kind one of [symmetric],
    [receiver-only], [asymmetric]. *)

(** {1 Forward search} *)

val forward :
  ?target:target ->
  ?max_states:int ->
  ?max_depth:int ->
  ?domains:int ->
  Explore.scenario ->
  Explore.outcome
(** {!Explore.walk} in best-first order, stopping at the first
    violation that matches [target]; violations off the target count in
    the outcome's [other_violations].  Defaults: [target = any],
    [max_states = 50_000], [max_depth = 10_000], [domains = 1]. *)

(** {1 Backward search} *)

type backward_outcome = {
  b_candidates : int;  (** Healed candidate sequences evaluated. *)
  b_max_len : int;
  b_truncated : bool;  (** The candidate budget cut enumeration short. *)
  b_found : (Harness.event list * Explore.found) option;
      (** The shortest reproducing fault sequence — first in the fixed
          enumeration order among those of minimal length — and the
          violation its forward check reached. *)
}

val backward :
  ?target:target ->
  ?max_len:int ->
  ?per_candidate_states:int ->
  ?domains:int ->
  graph:Net.Graph.t ->
  config:Dgmc.Config.t ->
  ?setup:Harness.event list ->
  mcs:Dgmc.Mc_id.t list ->
  unit ->
  backward_outcome
(** Iterative-deepening search for a minimal fault sequence (lengths
    [1 .. max_len], default 4) whose race reproduces the target.  Each
    candidate is checked by a sequential {!forward} bounded at
    [per_candidate_states] (default 20_000); candidates are dispatched
    in fixed chunks of 16 over [domains] and the first failure in
    enumeration order wins, so the result is byte-identical at any
    domain count.  [setup] events are injected and settled before each
    candidate's race ([[]] by default).  The total enumeration is
    bounded at 50_000 candidates, setting {!b_truncated} when hit. *)

(** {1 Event parsing} *)

val events_of_string :
  mcs:Dgmc.Mc_id.t list -> string -> (Harness.event list, string) result
(** Parse a semicolon-separated event list, e.g.
    ["join 0 mc=1; crash 3; recover 3; linkdown 0 1; linkup 0 1"].
    Each event is a script event read by
    {!Workload.Script.action_of_string} — same verbs, options, role
    defaults (an asymmetric join without [role=] is a receiver) and
    error messages — or one of the harness-only verbs [crash <switch>]
    and [recover <switch>].  The first bad event is an [Error] naming
    its token. *)

val events_to_string : Harness.event list -> string
(** Inverse of {!events_of_string}, through
    {!Workload.Script.action_to_string}: what a repro line passes to
    [--race] or [--setup]. *)

(** {1 Reporting} *)

val pp_forward : Format.formatter -> Explore.outcome -> unit

val pp_backward : Format.formatter -> backward_outcome -> unit
(** The candidate count, then the found sequence one
    ["[<tick>] join switch=0 mc#1(symmetric) (both)"] line per event —
    {!Workload.Events.pp}, {!Check.Fuzz}'s shrunk-workload line format,
    with the sequence index as the tick (the harness is untimed:
    interleaving order {e is} the timing); [crash switch=i] and
    [recover switch=i] extend the vocabulary — and its violation. *)
