(** BENCH_dgmc.json emission — the repository's performance trajectory.

    One record per bench invocation: metadata (commit, master seed,
    domain count), whole-run wall clock, and a per-figure breakdown down
    to individual (series × size × seed) cell timings.  The speedup
    figures compare the parallel wall clock against the sequential
    estimate (the sum of per-cell wall times, i.e. what [--domains 1]
    would have spent modulo scheduling noise).

    The writer is plain stdlib string building: no JSON dependency, and
    the output is stable, diffable, and parseable by anything. *)

type cell = {
  series : string;  (** Sweep the cell belongs to (e.g. protocol name). *)
  size : int;
  seed : int;
  wall_s : float;
}

type section = {
  name : string;  (** "fig6", "fig7", "fig8", "compare", ... *)
  elapsed_s : float;
  seq_estimate_s : float;
  domains : int;
  cells : cell list;
}

type meta = {
  commit : string;
  master_seed : int;
  domains : int;
  quick : bool;
}

val write :
  path:string -> meta:meta -> ?metrics:Registry.snapshot -> section list -> unit
(** Write the full JSON document, with run-level elapsed/speedup
    aggregated over the sections.  [metrics], when given, serializes a
    {!Registry.snapshot} as an additional [metrics] section. *)
