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

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs] with the applications spread
    over [domains] workers; result order follows [xs].  [domains] is
    capped at the task count.  If any task
    raises, the batch is still drained and the exception of the
    lowest-indexed failing task is re-raised. *)
