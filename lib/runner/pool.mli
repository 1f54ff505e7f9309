(** Work-stealing domain pool for embarrassingly parallel task batches.

    The evaluation workloads of this repository — figure sweeps over
    (graph × seed × regime) cells and fuzz batches over seeds — are
    lists of independent, CPU-bound tasks.  [Pool] runs such a batch
    across OCaml 5 domains while keeping the results {e deterministic}:

    - results are collected by task index, never by completion order;
    - tasks must derive any randomness from their own identity (their
      seed or {!Sim.Rng.derive} on their index), never from shared
      state, so the values computed are independent of which domain
      runs which task and in what order;
    - [~domains:1] executes the batch sequentially in the calling
      domain — byte-for-byte the pre-pool behaviour.

    Scheduling: each worker owns a contiguous block of task indices and
    consumes it front to back; an idle worker steals single tasks from
    the {e back} of the fullest remaining block.  With coarse tasks
    (every cell here simulates a full protocol run) this balances load
    to within one task without the overhead of per-task queues.

    Tasks must not share mutable state.  All protocol state in this
    repository is per-run ([Protocol.create] per task). *)

type stats = {
  task : int;  (** Task index within the batch. *)
  wall_s : float;  (** Wall-clock seconds spent inside the task. *)
  alloc_bytes : float;
      (** Bytes allocated by the running domain during the task
          (approximate when other tasks share the domain's GC). *)
  domain : int;  (** Worker slot (0 .. domains-1) that ran the task. *)
}

type 'a timed = { value : 'a; stats : stats }

type batch = {
  elapsed_s : float;  (** Wall clock for the whole batch, fork to join. *)
  seq_estimate_s : float;
      (** Sum of per-task wall times — the sequential-run estimate used
          to report speedup ([seq_estimate_s /. elapsed_s]). *)
  domains : int;  (** Worker count actually used. *)
}

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs] with the applications spread
    over [domains] workers; result order follows [xs].  [domains]
    defaults to [1]; it is capped at the task count.  If any task
    raises, the batch is still drained and the exception of the
    lowest-indexed failing task is re-raised. *)

val map_timed :
  ?domains:int -> ('a -> 'b) -> 'a list -> 'b timed list * batch
(** [map] plus per-task wall-clock/allocation counters and whole-batch
    timing, for benchmark reporting.  A {!Metrics.Registry} is pinned to
    the domain that created it, so a batch whose tasks record into the
    caller's registry runs at [~domains:1], where every task runs on the
    calling domain. *)
