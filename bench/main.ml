(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figures 6, 7, 8), the protocol-comparison table implied by §4's
   opening claim, and the CBT trade-off discussion of §5.

   Usage: main.exe [fig6] [fig7] [fig8] [compare] [cbt] [ablation] [hierarchy]
   [extra] [quick] [--domains N] [--json FILE]
   With no section argument, everything runs.  [quick] shrinks the seed
   set (3 instead of 10 graphs per size) for a fast smoke run.
   [--domains N] spreads the figure sweeps' (size × seed) cells over N
   OCaml domains via Runner.Pool; every table is byte-identical for any
   N (only ablation's host-time columns report wall clock, by design,
   and vary run to run regardless of N).  [--json FILE] additionally
   records per-figure cell timings, speedup vs the sequential estimate,
   commit/seed metadata and the protocol counters of a pinned registry
   run — the BENCH_dgmc.json perf trajectory.  Where the time goes,
   layer by layer, is the ledger's traced table (bench/ledger). *)

let quick = ref false

let domains = ref 1

(* The figure seed sets are 1..k; their base names the whole family. *)
let master_seed = 1

let seeds () =
  if !quick then [ 1; 2; 3 ] else Experiments.Figures.default_seeds

(* ------------------------------------------------------------------ *)
(* BENCH_dgmc.json accumulation *)

let bench_sections : Metrics.Bench.section list ref = ref []

let record name (t : Experiments.Figures.timing) =
  bench_sections :=
    {
      Metrics.Bench.name;
      elapsed_s = t.Experiments.Figures.elapsed_s;
      seq_estimate_s = t.Experiments.Figures.seq_estimate_s;
      domains = t.Experiments.Figures.domains_used;
      cells = t.Experiments.Figures.cells;
    }
    :: !bench_sections

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all)
  with Sys_error _ -> None

(* Enough git plumbing to stamp the record without shelling out: HEAD,
   one level of symbolic ref, packed-refs fallback. *)
let commit () =
  match Sys.getenv_opt "DGMC_COMMIT" with
  | Some c -> c
  | None -> (
    match read_file ".git/HEAD" with
    | None -> "unknown"
    | Some head -> (
      let head = String.trim head in
      match String.length head >= 5 && String.sub head 0 5 = "ref: " with
      | false -> head
      | true -> (
        let r = String.sub head 5 (String.length head - 5) in
        match read_file (".git/" ^ r) with
        | Some sha -> String.trim sha
        | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some txt ->
            let matching =
              List.find_opt
                (fun line ->
                  match String.index_opt line ' ' with
                  | Some i -> String.sub line (i + 1) (String.length line - i - 1) = r
                  | None -> false)
                (String.split_on_char '\n' txt)
            in
            (match matching with
            | Some line -> String.sub line 0 (String.index line ' ')
            | None -> "unknown")))))

let heading title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let print_bursty title note (r : Experiments.Figures.bursty_result) =
  heading title;
  print_endline note;
  Metrics.Table.print_table (Experiments.Figures.bursty_table r);
  Printf.printf "all runs converged to network-wide agreement: %b\n" r.all_converged

let fig6 () =
  let r = Experiments.Figures.fig6 ~domains:!domains ~seeds:(seeds ()) () in
  record "fig6" r.Experiments.Figures.b_timing;
  print_bursty "Figure 6 - Experiment 1: bursty events, computation dominates"
    "(Tc = 400 us, t_hop = 4 us; 10-member join burst within one flooding \
     diameter;\n mean +/- 95% CI over the random graphs of each size)"
    r

let fig7 () =
  let r = Experiments.Figures.fig7 ~domains:!domains ~seeds:(seeds ()) () in
  record "fig7" r.Experiments.Figures.b_timing;
  print_bursty "Figure 7 - Experiment 2: bursty events, communication dominates"
    "(Tc = 100 us, t_hop = 5 ms - WAN regime; same workload as Figure 6)"
    r

let fig8 () =
  heading "Figure 8 - Experiment 3: normal traffic periods";
  print_endline
    "(established 5-member MC; 40 Poisson membership events, mean gap 50 \
     rounds;\n events handled individually => both ratios stay minimal)";
  let r = Experiments.Figures.fig8 ~domains:!domains ~seeds:(seeds ()) () in
  record "fig8" r.Experiments.Figures.n_timing;
  Metrics.Table.print_table (Experiments.Figures.normal_table r);
  Printf.printf "all runs converged to network-wide agreement: %b\n"
    r.n_all_converged

let compare () =
  heading "Comparison - per-event signaling cost: D-GMC vs brute-force vs MOSPF";
  print_endline
    "(same bursty workload; brute-force recomputes at every switch per \
     event;\n MOSPF recomputes at every on-tree router per source after each \
     change)";
  let c =
    Experiments.Figures.compare_protocols ~domains:!domains ~seeds:(seeds ()) ()
  in
  record "compare" c.Experiments.Figures.c_timing;
  Metrics.Table.print_table (Experiments.Figures.comparison_table c)

let cbt () =
  heading "CBT trade-off (paper 5) - shared-tree traffic concentration";
  print_endline
    "(60 switches, 12 receivers, 6 off-tree senders x 5 packets; shared \
     trees\n carry every packet on every tree link, per-source trees spread \
     the load;\n CBT cost/delay depend on a core placement the network \
     cannot really pick)";
  Metrics.Table.print_table
    (Experiments.Figures.cbt_table (Experiments.Figures.cbt_comparison ()))

let ablation () =
  heading "Ablations - design choices called out in DESIGN.md";
  print_endline "\n[a] incremental updates (paper 3.5) vs from-scratch computation";
  print_endline
    "(8-member burst + 20 churn events; tree quality = final cost / fresh KMB)";
  Metrics.Table.print
    ~align:[ Metrics.Table.Left ]
    ~headers:[ "strategy"; "mean cost ratio"; "all converged" ]
    (List.map
       (fun (r : Experiments.Ablation.incremental_row) ->
         [
           r.label;
           Metrics.Table.cell_f r.mean_cost_ratio;
           string_of_bool r.all_converged;
         ])
       (Experiments.Ablation.incremental_vs_scratch ~seeds:(seeds ()) ()));
  print_endline "\n[b] Steiner heuristic choice (n = 60)";
  Metrics.Table.print
    ~align:[ Metrics.Table.Left ]
    ~headers:[ "heuristic"; "members"; "cost / lower bound"; "cpu time" ]
    (List.map
       (fun (r : Experiments.Ablation.heuristic_row) ->
         [
           r.algo;
           string_of_int r.members;
           Metrics.Table.cell_f r.mean_cost_vs_bound;
           Printf.sprintf "%.0f us" r.mean_time_us;
         ])
       (Experiments.Ablation.steiner_heuristics ~seeds:(seeds ()) ()));
  print_endline "\n[c] drift threshold for from-scratch recomputation";
  Metrics.Table.print
    ~headers:[ "threshold"; "final cost ratio"; "all converged" ]
    (List.map
       (fun (r : Experiments.Ablation.drift_row) ->
         [
           Metrics.Table.cell_f r.threshold;
           Metrics.Table.cell_f r.final_cost_ratio;
           string_of_bool r.d_converged;
         ])
       (Experiments.Ablation.drift_threshold ~seeds:(seeds ()) ()))

let hierarchy () =
  heading "Hierarchical D-GMC - the paper's scalability extension (2)";
  print_endline "(10 areas x 20 switches = 200; 20 sparse membership events";
  print_endline " confined to 3 areas; 'reach' = switches receiving signaling per";
  print_endline " event: flat D-GMC floods all n switches, the hierarchy floods";
  print_endline " one area plus the logical level when area membership flips)";
  Metrics.Table.print_table
    (Experiments.Scale.table
       (Experiments.Scale.hier_vs_flat ~domains:!domains
          ~seeds:(if !quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ])
          ()))

let extra () =
  heading "Extension experiments - axes the paper implies but does not sweep";
  print_endline "\n[a] burst-size sensitivity (n = 60, computation-dominated regime)";
  Metrics.Table.print
    ~headers:
      [ "burst"; "proposals/event"; "floodings/event"; "convergence (rounds)"; "ok" ]
    (List.map
       (fun (r : Experiments.Extra.burst_row) ->
         [
           string_of_int r.members;
           Experiments.Figures.ci r.proposals_per_event;
           Experiments.Figures.ci r.floodings_per_event;
           Experiments.Figures.ci r.convergence_rounds;
           string_of_bool r.all_converged;
         ])
       (Experiments.Extra.burst_size ~seeds:(seeds ()) ()));
  print_endline
    "\n[b] per-MC independence (3.1): k concurrent 6-member bursts, n = 60";
  Metrics.Table.print
    ~headers:
      [ "concurrent MCs"; "computations/event/MC"; "floodings/event/MC"; "ok" ]
    (List.map
       (fun (r : Experiments.Extra.independence_row) ->
         [
           string_of_int r.mcs;
           Experiments.Figures.ci r.per_mc_computations;
           Experiments.Figures.ci r.per_mc_floodings;
           string_of_bool r.i_all_converged;
         ])
       (Experiments.Extra.mc_independence ~seeds:(seeds ()) ()))

let usage () =
  prerr_endline
    "usage: main.exe [SECTION...] [quick] [--domains N] [--json FILE]\n\
     sections: fig6 fig7 fig8 compare cbt ablation hierarchy extra";
  exit 2

let () =
  let json = ref None in
  let rec parse = function
    | [] -> []
    | "quick" :: rest ->
      quick := true;
      parse rest
    | "--domains" :: v :: rest -> (
      match int_of_string_opt v with
      | Some d when d >= 1 ->
        domains := d;
        parse rest
      | _ -> usage ())
    | [ "--domains" ] -> usage ()
    | "--json" :: v :: rest ->
      json := Some v;
      parse rest
    | [ "--json" ] -> usage ()
    | a :: rest when String.length a >= 2 && String.sub a 0 2 = "--" -> (
      match String.index_opt a '=' with
      | Some i ->
        parse
          (String.sub a 0 i
           :: String.sub a (i + 1) (String.length a - i - 1)
           :: rest)
      | None -> usage ())
    | a :: rest -> a :: parse rest
  in
  let sections = parse (List.tl (Array.to_list Sys.argv)) in
  let all = sections = [] in
  let want s = all || List.mem s sections in
  if want "fig6" then fig6 ();
  if want "fig7" then fig7 ();
  if want "fig8" then fig8 ();
  if want "compare" then compare ();
  if want "cbt" then cbt ();
  if want "ablation" then ablation ();
  if want "hierarchy" then hierarchy ();
  if want "extra" then extra ();
  (match !json with
  | None -> ()
  | Some path ->
    (* The record's [metrics] section.  A parallel batch of bursty runs on
       atm_lan fills the pool.task_* histograms, and its workers record
       protocol counters through per-domain child registries that the
       pool merges deterministically at join; one more run at the master
       seed records on the calling domain.  Counters ride on simulated
       time, so they are exact for the seed and the bench differ holds
       them so. *)
    let registry = Metrics.Registry.create () in
    let (_ : Experiments.Harness.run Runner.Pool.timed list), _ =
      Runner.Pool.map_registered ~domains:!domains ~metrics:registry
        (fun ?metrics seed ->
          Experiments.Harness.bursty_run ?metrics ~seed ~n:20
            ~config:Dgmc.Config.atm_lan ~members:10 ())
        [ 1; 2; 3; 4 ]
    in
    ignore
      (Experiments.Harness.bursty_run ~metrics:registry ~seed:master_seed ~n:20
         ~config:Dgmc.Config.atm_lan ~members:10 ());
    let meta =
      {
        Metrics.Bench.commit = commit ();
        master_seed;
        domains = !domains;
        quick = !quick;
      }
    in
    Metrics.Bench.write ~path ~meta
      ~metrics:(Metrics.Registry.snapshot registry)
      (List.rev !bench_sections);
    Printf.printf "bench record written to %s\n" path);
  print_newline ()
