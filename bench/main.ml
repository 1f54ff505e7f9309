(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figures 6, 7, 8), the protocol-comparison table implied by §4's
   opening claim, and the CBT trade-off discussion of §5.

   Usage: main.exe [fig6] [fig7] [fig8] [compare] [cbt] [ablation] [hierarchy]
   [extra] [quick] [--domains N]
   With no section argument, everything runs.  [quick] shrinks the seed
   set (3 instead of 10 graphs per size) for a fast smoke run.
   [--domains N] spreads the figure sweeps' (size × seed) cells over N
   OCaml domains via Runner.Pool; every table is byte-identical for any
   N.  The repository's performance record, wall time and where it
   goes layer by layer, is the benchmark ledger (bench/ledger). *)

let quick = ref false

let domains = ref 1

let seeds () =
  if !quick then [ 1; 2; 3 ] else Experiments.Figures.default_seeds

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
  print_bursty "Figure 6 - Experiment 1: bursty events, computation dominates"
    "(Tc = 400 us, t_hop = 4 us; 10-member join burst within one flooding \
     diameter;\n mean +/- 95% CI over the random graphs of each size)"
    r

let fig7 () =
  let r = Experiments.Figures.fig7 ~domains:!domains ~seeds:(seeds ()) () in
  print_bursty "Figure 7 - Experiment 2: bursty events, communication dominates"
    "(Tc = 100 us, t_hop = 5 ms - WAN regime; same workload as Figure 6)"
    r

let fig8 () =
  heading "Figure 8 - Experiment 3: normal traffic periods";
  print_endline
    "(established 5-member MC; 40 Poisson membership events, mean gap 50 \
     rounds;\n events handled individually => both ratios stay minimal)";
  let r = Experiments.Figures.fig8 ~domains:!domains ~seeds:(seeds ()) () in
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
    ~headers:[ "heuristic"; "members"; "cost / lower bound" ]
    (List.map
       (fun (r : Experiments.Ablation.heuristic_row) ->
         [
           r.algo;
           string_of_int r.members;
           Metrics.Table.cell_f r.mean_cost_vs_bound;
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
    "usage: main.exe [SECTION...] [quick] [--domains N]\n\
     sections: fig6 fig7 fig8 compare cbt ablation hierarchy extra";
  exit 2

let () =
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
  print_newline ()
