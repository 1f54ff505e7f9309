(** Deterministic protocol fuzzing under fault injection.

    One integer seed determines an entire fuzz case: a random topology, a
    random multi-MC membership/link workload, and a random fault plan
    (loss, duplication, reordering, jitter, plus bounded switch-crash and
    partition windows).  The case runs the full {!Dgmc.Protocol} network
    with reliable flooding and the runtime invariant monitor
    ({!Monitor}) attached, then demands the whole catalogue: no invariant
    violation during the run, engine quiescence, and — once all scheduled
    faults are over and every downed link restored — network-wide
    agreement on every MC's member list and installed topology with
    [C = E = R] (the terminal laws).

    Fault windows are generated shorter than the reliable-flooding
    retransmission span, so every flood can bridge them; this is what
    makes "converges after fault quiescence" a fair demand (a window
    longer than the retry budget models a {e durable} partition, which
    the paper leaves to protocol-level link events and database
    resynchronisation).

    On failure the workload is shrunk (greedy removal of join/leave and
    link-down/link-up units, re-running the deterministic case each
    time) and the failure report carries a
    replayable reproduction line: the same seed regenerates the same
    case, byte for byte. *)

type case = {
  seed : int;  (** The generation seed; regenerates everything below. *)
  graph : Net.Graph.t;  (** Pristine topology (copied for each run). *)
  config : Dgmc.Config.t;  (** Reliable flood mode, ATM or WAN regime. *)
  regime : string;  (** ["atm"] or ["wan"], for reports. *)
  fault_spec : Faults.Plan.spec;
  fault_seed : int;
  crashes : (int * float * float) list;  (** (switch, from, until). *)
  partitions : (int list * float * float) list;  (** (side, from, until). *)
  mcs : Dgmc.Mc_id.t list;
  events : Workload.Events.t list;
}

type stats = {
  s_totals : Dgmc.Protocol.totals;
  s_faults : Faults.Plan.counters;
  s_sweeps : int;  (** Monitor sweeps performed. *)
}

type failure = {
  f_case : case;
  f_problems : string list;
      (** The monitor's violations, terminal laws included, or the
          livelock report. *)
  f_shrunk : Workload.Events.t list;
      (** Minimal failing sub-workload of [f_case.events]. *)
  f_shrink_runs : int;  (** Simulations spent shrinking. *)
}

type outcome = {
  o_iterations : int;
  o_failures : failure list;  (** In seed order; empty on success. *)
  o_stats : stats list;  (** Per passing iteration, in seed order. *)
}

val case_of_seed :
  ?n_max:int -> ?mcs_max:int -> ?events_max:int -> ?health:bool -> int -> case
(** Generate the case a seed denotes.  [n_max] (default 20) bounds the
    switch count from above (the minimum is 4), [mcs_max] (default 3)
    the number of MCs, [events_max] (default 20) the workload length
    (link restorations may add a few more).

    [health] (default [false]) selects the {e health band}: the same
    seed draws the identical topology, workload and message-fault spec
    — the default stream is untouched — and the case is then
    transformed to run with the opt-in link-health layer (default
    [health] directive: 0.5-round hellos, k:3 detector), so detectors
    must discover every scripted link change.  Message drops are zeroed
    and crash/partition windows stripped in this band: sustained hello
    silence from those faults would be a true detection that the
    terminal ground-truth oracle cannot tell apart from a stale
    believed-down adjacency. *)

val run_case : ?trace:Sim.Trace.t -> case -> (stats, string list) result
(** Execute one case end to end.  [Error problems] lists every invariant
    violation the monitor recorded, the terminal laws
    ({!Monitor.check_terminal}) included, or reports that the run did
    not quiesce; deterministic — equal cases yield equal results.

    An enabled [trace] captures the run's full causal event record —
    LSA provenance, per-switch installs, fault injections, and any
    invariant violations (via {!Monitor.attach}).  A fuzz case can flood
    heavily; create the trace with a bounded ring (e.g.
    [Sim.Trace.create ~cap:200_000 ()]) so a pathological case degrades
    to keeping the newest events instead of exhausting memory.  Tracing
    never changes the simulated run: same seed, same outcome. *)

(* dgmc-analyze: allow unused-export — the test_check shrink cases check
   the timing pass on bug-injected cases, which Fuzz.run never draws *)
val shrink : case -> string list -> Workload.Events.t list * int
(** [shrink case problems] shrinks a failing case whose run reported
    [problems].  Greedy removal of whole units — a join with its
    matching leave, a link-down with the link-up that heals it; a leave
    or a link-up never goes alone — then a timing pass that pulls each
    surviving event back to its predecessor's time (the first to 0).  A
    candidate is kept only if it is {!Workload.Events.well_formed} (every
    join of a non-member, every leave of a member, every downed link
    healed) and it fails with
    the same set of [\[law\]] tags as [problems] (a run that does not
    quiesce is its own tag).  Returns the shrunk workload and the number
    of probe runs spent (both passes share one cap of 200).
    Deterministic. *)

val run :
  ?n_max:int ->
  ?mcs_max:int ->
  ?events_max:int ->
  ?health:bool ->
  ?domains:int ->
  ?progress:(int -> unit) ->
  seed:int ->
  iterations:int ->
  unit ->
  outcome
(** Run cases for seeds [seed .. seed + iterations - 1], shrinking each
    failure.  [domains] (default 1) spreads the cases over a
    {!Runner.Pool}; generation, execution and shrinking are pure
    functions of each case's seed, so the outcome — stats, failures,
    shrunk workloads, repro lines — is identical for any domain count.
    [progress] is called with every case's seed, in order, before the
    batch starts. *)

val pp_case : Format.formatter -> case -> unit

val pp_failure : Format.formatter -> failure -> unit
(** Full failure report: case, problems, shrunk workload, and the
    command that replays the failing case, e.g.
    ["reproduce: dgmc_sim --fuzz --seed 47 --iterations 1"]. *)
