(* dgmc_sim — command-line driver for the D-GMC simulation study.

   The figure subcommands (fig6, fig7, fig8, compare, cbt, ablation,
   hierarchy, extra) regenerate the paper's evaluation section by
   section, each under its heading; this is the only program that
   prints them.  The others are single-run, scenario, topology, fuzzing
   and search utilities.  `dgmc_sim <cmd> --help` documents each. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared options *)

(* The figure options are checked as they are parsed: a value the
   figures cannot run is a usage error (exit 124) that names the option,
   not an exception from deep inside a sweep. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some v -> Error (Printf.sprintf "must be at least %d, got %d" lo v)
    | None -> Error (Printf.sprintf "invalid value '%s', expected an integer" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 && Float.is_finite v -> Ok v
    | Some _ -> Error (Printf.sprintf "must be a positive number, got %s" s)
    | None -> Error (Printf.sprintf "invalid value '%s', expected a number" s)
  in
  Arg.conv' (parse, Format.pp_print_float)

(* Every network size: a protocol run needs two switches. *)
let size = int_at_least 2

let sizes_arg =
  let doc = "Comma-separated network sizes to sweep (each at least 2)." in
  Arg.(value & opt (list size) [ 20; 40; 60; 80; 100 ] & info [ "sizes" ] ~doc)

let seeds_arg =
  let doc = "Number of random graphs (seeds 1..N) per size." in
  Arg.(value & opt (int_at_least 1) 10 & info [ "graphs" ] ~doc)

let members_arg =
  let doc = "Members joining in each burst (at most the smallest size)." in
  Arg.(value & opt (int_at_least 1) 10 & info [ "members" ] ~doc)

let domains_arg doc =
  Arg.(value & opt (int_at_least 1) 1 & info [ "domains" ] ~doc)

let sweep_domains_arg =
  domains_arg
    "Spread the sweep over this many OCaml domains (Runner.Pool); the \
     output is byte-identical for any value."

(* A check across options: [v] above [bound] is a usage error naming
   [opt]; otherwise the term yields [ok]. *)
let at_most opt ~what bound v ok =
  if v <= bound then `Ok ok
  else
    `Error
      ( true,
        Printf.sprintf "option '%s': must be at most %s (%d), got %d" opt what
          bound v )

(* A burst cannot hold more members than the smallest network has
   switches. *)
let sizes_members_arg =
  let check sizes members =
    at_most "--members" ~what:"the smallest --sizes value"
      (List.fold_left min max_int sizes)
      members (sizes, members)
  in
  Term.(ret (const check $ sizes_arg $ members_arg))

let seeds_of count = List.init count (fun i -> i + 1)

(* The two published timing regimes by name, one converter for [run]
   and [--search]. *)
let regime_arg doc =
  let names = List.map (fun (name, _) -> (name, name)) Dgmc.Config.regimes in
  Arg.(value & opt (enum names) "atm" & info [ "regime" ] ~doc)

let regime_config name = List.assoc name Dgmc.Config.regimes

(* The command-line name of an [enum] value. *)
let name_in names v = fst (List.find (fun (_, x) -> x = v) names)

(* The CSV file is opened once the other options have checked out,
   before the sweep: one that cannot be written is one located line
   and exit 2. *)
let csv_arg =
  Term.(
    const (Option.map (Cli.open_out ~prog:"dgmc_sim"))
    $ Arg.(
        value
        & opt (some string) None
        & info [ "csv" ] ~docv:"FILE"
            ~doc:"Also write the table as CSV to $(docv)."))

(* A figure's table and its CSV export. *)
let print_table ?csv (t : Metrics.Table.t) =
  Metrics.Table.print_table t;
  Option.iter
    (fun oc ->
      Metrics.Csv.write oc ~headers:t.headers t.rows;
      close_out oc)
    csv

(* Every figure section opens with a ruled heading and a note on its
   setup; the sweeps that check agreement close with a footer. *)
let heading title note =
  let rule = String.make 64 '=' in
  Printf.printf "\n%s\n%s\n%s\n%s\n" rule title rule note

let print_converged ok =
  Printf.printf "all runs converged to network-wide agreement: %b\n" ok

(* ------------------------------------------------------------------ *)
(* Structured tracing (shared by run / script / fuzz) *)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Capture a structured causal trace of the run — LSA provenance \
           (origination, per-link forwards, deliveries, drops), topology \
           computations and installs, fault injections — and write it as \
           JSON Lines (schema dgmc-trace/1) to $(docv), ready for \
           $(b,dgmc_report).  '-' prints the human-readable timeline to \
           stdout instead.")

(* The run's trace, and what writes it out once the run is over.  A
   JSONL file is opened here, before the run. *)
let make_trace ?cap file =
  match file with
  | None -> (Sim.Trace.disabled, ignore)
  | Some "-" ->
    let trace = Sim.Trace.create ?cap () in
    ( trace,
      fun () ->
        List.iter
          (fun e -> Format.printf "%a@." Sim.Trace.pp_entry e)
          (Sim.Trace.entries trace) )
  | Some path ->
    let oc = Cli.open_out ~prog:"dgmc_sim" path in
    let trace = Sim.Trace.create ?cap () in
    ( trace,
      fun () ->
        Sim.Trace.write_jsonl trace oc;
        close_out oc;
        Printf.eprintf "trace: %d event(s) written to %s%s\n%!"
          (Sim.Trace.count trace) path
          (match Sim.Trace.dropped trace with
          | 0 -> ""
          | d -> Printf.sprintf " (%d evicted by the ring buffer)" d) )

(* ------------------------------------------------------------------ *)
(* fig6 / fig7 *)

let fig6_cmd =
  let run (sizes, members) graphs domains csv =
    heading "Figure 6 - Experiment 1: bursty events, computation dominates"
      (Printf.sprintf
         "(Tc = 400 us, t_hop = 4 us; %d-member join burst within one flooding \
          diameter;\n mean +/- 95%% CI over the random graphs of each size)"
         members);
    let r =
      Experiments.Figures.fig6 ~domains ~sizes ~seeds:(seeds_of graphs) ~members
    in
    print_table ?csv (Experiments.Figures.bursty_table r);
    print_converged r.all_converged
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Experiment 1: bursty events, computation dominates.")
    Term.(const run $ sizes_members_arg $ seeds_arg $ sweep_domains_arg $ csv_arg)

let fig7_cmd =
  let run (sizes, members) graphs domains csv =
    heading "Figure 7 - Experiment 2: bursty events, communication dominates"
      "(Tc = 100 us, t_hop = 5 ms - WAN regime; same workload as Figure 6)";
    let r =
      Experiments.Figures.fig7 ~domains ~sizes ~seeds:(seeds_of graphs) ~members
    in
    print_table ?csv (Experiments.Figures.bursty_table r);
    print_converged r.all_converged
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Experiment 2: bursty events, communication dominates.")
    Term.(const run $ sizes_members_arg $ seeds_arg $ sweep_domains_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* fig8 *)

(* The normal-traffic workload: fig8's defaults, and what
   `run --workload normal` runs. *)
let normal_events = 40

let normal_gap_rounds = 50.0

let fig8_cmd =
  let events_arg =
    Arg.(
      value & opt (int_at_least 1) normal_events
      & info [ "events" ] ~doc:"Membership events per run (at least 1).")
  in
  let gap_arg =
    Arg.(
      value & opt positive_float normal_gap_rounds
      & info [ "gap" ] ~doc:"Mean inter-event gap, in protocol rounds (positive).")
  in
  let run sizes graphs domains events gap_rounds csv =
    heading "Figure 8 - Experiment 3: normal traffic periods"
      ((* dgmc-analyze: allow float-format — human-readable setup note,
          not a schema *)
       Printf.sprintf
         "(established 5-member MC; %d Poisson membership events, mean gap %g \
          rounds;\n events handled individually => both ratios stay minimal)"
         events gap_rounds);
    let r =
      Experiments.Figures.fig8 ~domains ~sizes ~seeds:(seeds_of graphs) ~events
        ~gap_rounds
    in
    print_table ?csv (Experiments.Figures.normal_table r);
    print_converged r.n_all_converged
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Experiment 3: normal (sparse) traffic periods.")
    Term.(
      const run $ sizes_arg $ seeds_arg $ sweep_domains_arg $ events_arg $ gap_arg
      $ csv_arg)

(* ------------------------------------------------------------------ *)
(* compare *)

let compare_cmd =
  let sources_arg =
    Arg.(
      value & opt (int_at_least 1) 3
      & info [ "sources" ] ~doc:"Active MOSPF sources (1 to --members).")
  in
  (* MOSPF's sources are drawn from the burst's members. *)
  let check (sizes, members) sources =
    at_most "--sources" ~what:"--members" members sources (sizes, members, sources)
  in
  let run (sizes, members, sources) graphs domains =
    heading "Comparison - per-event signaling cost: D-GMC vs brute-force vs MOSPF"
      "(same bursty workload; brute-force recomputes at every switch per \
       event;\n MOSPF recomputes at every on-tree router per source after each \
       change)";
    print_table
      (Experiments.Figures.comparison_table
         (Experiments.Figures.compare_protocols ~domains ~sizes
            ~seeds:(seeds_of graphs) ~members ~sources))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Per-event cost: D-GMC vs brute-force LSR vs MOSPF.")
    Term.(
      const run $ ret (const check $ sizes_members_arg $ sources_arg) $ seeds_arg
      $ sweep_domains_arg)

(* ------------------------------------------------------------------ *)
(* cbt *)

let cbt_cmd =
  let n_arg =
    Arg.(value & opt size 60 & info [ "n" ] ~doc:"Network size (at least 2).")
  in
  let receivers_arg =
    Arg.(
      value & opt (int_at_least 1) 12
      & info [ "receivers" ] ~doc:"Receiver count (at most -n).")
  in
  let senders_arg =
    Arg.(
      value & opt (int_at_least 0) 6
      & info [ "senders" ] ~doc:"Off-tree sender count (at most -n minus --receivers).")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Graph seed.") in
  (* Receivers and senders are distinct switches. *)
  let check n receivers senders =
    match at_most "--receivers" ~what:"-n" n receivers () with
    | `Ok () ->
      at_most "--senders" ~what:"-n minus --receivers" (n - receivers) senders
        (n, receivers, senders)
    | `Error e -> `Error e
  in
  let run (n, receivers, senders) seed =
    heading "CBT trade-off (paper 5) - shared-tree traffic concentration"
      (Printf.sprintf
         "(%d switches, %d receivers, %d off-tree senders x 5 packets; shared \
          trees\n carry every packet on every tree link, per-source trees \
          spread the load;\n CBT cost/delay depend on a core placement the \
          network cannot really pick)"
         n receivers senders);
    print_table
      (Experiments.Figures.cbt_table
         (Experiments.Figures.cbt_comparison ~seed ~n ~receivers ~senders))
  in
  Cmd.v
    (Cmd.info "cbt" ~doc:"CBT trade-off: shared-tree traffic concentration.")
    Term.(
      const run $ ret (const check $ n_arg $ receivers_arg $ senders_arg) $ seed_arg)

(* ------------------------------------------------------------------ *)
(* ablation *)

let ablation_cmd =
  let run graphs =
    let seeds = seeds_of graphs in
    heading "Ablations - design choices called out in DESIGN.md"
      "\n[a] incremental updates (paper 3.5) vs from-scratch computation";
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
         (Experiments.Ablation.incremental_vs_scratch ~seeds));
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
         (Experiments.Ablation.steiner_heuristics ~seeds));
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
         (Experiments.Ablation.drift_threshold ~seeds))
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Design-choice ablations: incremental vs from-scratch trees, Steiner \
          heuristic, drift threshold.")
    Term.(const run $ seeds_arg)

(* ------------------------------------------------------------------ *)
(* hierarchy *)

let hierarchy_cmd =
  let areas_arg =
    Arg.(
      value & opt (int_at_least 3) 10
      & info [ "areas" ]
          ~doc:"Number of areas (at least 3: the workload uses three).")
  in
  let per_area_arg =
    Arg.(value & opt size 20 & info [ "per-area" ] ~doc:"Switches per area (at least 2).")
  in
  let events_arg =
    Arg.(
      value & opt (int_at_least 1) 20
      & info [ "events" ] ~doc:"Membership events (at least 1).")
  in
  let run areas per_area events graphs domains =
    heading "Hierarchical D-GMC - the paper's scalability extension (2)"
      (Printf.sprintf
         "(%d areas x %d switches = %d; %d sparse membership events\n \
          confined to 3 areas; 'reach' = switches receiving signaling per\n \
          event: flat D-GMC floods all n switches, the hierarchy floods\n \
          one area plus the logical level when area membership flips)"
         areas per_area (areas * per_area) events);
    print_table
      (Experiments.Scale.table
         (Experiments.Scale.hier_vs_flat ~domains ~seeds:(seeds_of graphs) ~areas
            ~per_area ~events))
  in
  Cmd.v
    (Cmd.info "hierarchy"
       ~doc:"Hierarchical vs flat D-GMC signaling scope on clustered topologies.")
    Term.(
      const run $ areas_arg $ per_area_arg $ events_arg $ seeds_arg
      $ sweep_domains_arg)

(* ------------------------------------------------------------------ *)
(* extra *)

let extra_cmd =
  let run graphs =
    let seeds = seeds_of graphs in
    heading "Extension experiments - axes the paper implies but does not sweep"
      "\n[a] burst-size sensitivity (n = 60, computation-dominated regime)";
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
         (Experiments.Extra.burst_size ~seeds));
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
         (Experiments.Extra.mc_independence ~seeds))
  in
  Cmd.v
    (Cmd.info "extra"
       ~doc:
         "Extension experiments: burst-size sensitivity and per-MC \
          independence.")
    Term.(const run $ seeds_arg)

(* ------------------------------------------------------------------ *)
(* run: one scenario, verbose *)

let run_cmd =
  let n_arg =
    Arg.(value & opt size 40 & info [ "n" ] ~doc:"Network size (at least 2).")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let members_arg =
    Arg.(
      value & opt (int_at_least 1) 10
      & info [ "members" ] ~doc:"Burst size (1 to -n; bursty workload only).")
  in
  let workload_arg =
    Arg.(
      value
      & opt (enum [ ("bursty", `Bursty); ("normal", `Normal) ]) `Bursty
      & info [ "workload" ] ~doc:"Event pattern.")
  in
  (* A burst cannot hold more members than the network has switches; the
     normal workload draws its own. *)
  let check n members workload =
    match workload with
    | `Bursty -> at_most "--members" ~what:"-n" n members (n, members, workload)
    | `Normal -> `Ok (n, members, workload)
  in
  let run (n, members, workload) seed regime trace_file =
    let config = regime_config regime in
    let trace, finish_trace = make_trace trace_file in
    let r =
      match workload with
      | `Bursty ->
        Experiments.Harness.bursty_run ~trace ~seed ~n ~config ~members ()
      | `Normal ->
        Experiments.Harness.poisson_run ~trace ~seed ~n ~config
          ~events:normal_events ~gap_rounds:normal_gap_rounds ()
    in
    Printf.printf "switches:            %d\n" r.n;
    Printf.printf "events:              %d\n" r.events;
    (* dgmc-analyze: allow float-format — human-readable run report, not
       a schema *)
    Printf.printf
      "computations/event:  %.3f\nfloodings/event:     %.3f\n\
       messages/event:      %.1f\n"
      r.computations_per_event r.floodings_per_event r.messages_per_event;
    (* A normal workload's convergence time is its whole Poisson session,
       not the settling time of one burst (Fig 8 reports none either). *)
    (match (workload, r.convergence_rounds) with
    | `Normal, _ -> ()
    | `Bursty, Some c ->
      (* dgmc-analyze: allow float-format — human-readable run report *)
      Printf.printf "convergence:         %.2f rounds\n" c
    | `Bursty, None -> Printf.printf "convergence:         n/a\n");
    Printf.printf "network-wide agreement: %b\n" r.converged;
    finish_trace ();
    if not r.converged then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"One D-GMC simulation run, reported in detail.")
    Term.(
      const run
      $ ret (const check $ n_arg $ members_arg $ workload_arg)
      $ seed_arg
      $ regime_arg "Timing regime: atm (Tc >> t_hop) or wan."
      $ trace_file_arg)

(* ------------------------------------------------------------------ *)
(* script: run a scenario file *)

let script_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario script.")
  in
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit the final topology of the first MC as DOT.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Attach the runtime invariant monitor (Check.Monitor) and fail \
             if any D-GMC invariant is violated during the run.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Run under a fault plan, e.g. 'drop=0.3,dup=0.1,jitter=0.5' \
             (keys: drop, dup, reorder, jitter).  Overrides the \
             script's own 'faults' directive and switches flooding to the \
             reliable (ack + retransmit) mode.")
  in
  let fault_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ]
          ~doc:"Seed of the fault plan's random stream (default 1).")
  in
  let health_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "health" ] ~docv:"SPEC"
          ~doc:
            "Enable the link-health layer, e.g. \
             'period=0.5r,detector=k:3,damp=on' (keys as in the script \
             'health' directive; pass '' for all defaults).  Overrides the \
             script's own 'health' directive; scripted link events then \
             become ground truth the hello detectors must discover.")
  in
  let run file trace_file dot check faults_spec fault_seed health_spec =
    match Workload.Script.load file with
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 2
    | Ok script ->
      let script =
        let faults =
          match faults_spec with
          | None -> script.Workload.Script.faults
          | Some s -> (
            match Faults.Plan.spec_of_string s with
            | Ok spec -> Some spec
            | Error msg ->
              Printf.eprintf "--faults: %s\n" msg;
              exit 2)
        in
        let fault_seed =
          Option.value ~default:script.Workload.Script.fault_seed fault_seed
        in
        { script with Workload.Script.faults; fault_seed }
      in
      let script =
        match health_spec with
        | None -> script
        | Some s -> (
          match
            Workload.Script.health_of_spec ~graph:script.Workload.Script.graph
              ~config:script.Workload.Script.config
              ~events:script.Workload.Script.events s
          with
          | Ok hc -> { script with Workload.Script.health = Some hc }
          | Error msg ->
            Printf.eprintf "--health: %s\n" msg;
            exit 2)
      in
      let trace, finish_trace = make_trace trace_file in
      let net = Workload.Script.build ~trace script in
      let monitor = if check then Some (Check.Monitor.attach net) else None in
      Dgmc.Protocol.run net;
      Option.iter Check.Monitor.check_terminal monitor;
      finish_trace ();
      List.iter
        (fun mc ->
          Format.printf "%a: %s@." Dgmc.Mc_id.pp mc
            (match Dgmc.Protocol.divergence net mc with
            | [] -> "converged"
            | reasons -> "DIVERGED: " ^ String.concat "; " reasons);
          match Dgmc.Protocol.agreed_topology net mc with
          | Some tree ->
            Format.printf "  topology: %a@." Mctree.Tree.pp tree;
            if dot then
              print_string
                (Net.Dot.graph
                   ~highlight:(Mctree.Tree.edges tree)
                   ~mark:(Mctree.Tree.terminals tree)
                   (Dgmc.Protocol.graph net))
          | None -> Format.printf "  (no agreed topology)@.")
        script.mcs;
      let t = Dgmc.Protocol.totals net in
      Format.printf
        "events %d, computations %d (%d withdrawn), MC floodings %d, link \
         floodings %d, messages %d@."
        t.events t.computations t.computations_withdrawn t.mc_floodings
        t.link_floodings t.messages;
      (match Dgmc.Protocol.faults net with
      | None -> ()
      | Some plan ->
        let c = Faults.Plan.counters plan in
        Format.printf "reliable flooding: %d acks, %d retransmissions@."
          t.acks t.retransmissions;
        Format.printf
          "faults: %d transmissions, %d delivered, %d dropped, %d duplicated, \
           %d reordered, %d blocked@."
          c.transmissions c.delivered c.dropped c.duplicated c.reordered
          (c.blocked_crash + c.blocked_partition));
      (match Dgmc.Protocol.health_summary net with
      | None -> ()
      | Some h ->
        let p99 = Metrics.Stats.nearest_rank h.Dgmc.Link_health.h_latencies 0.99 in
        Format.printf
          "health: hellos=%d detections=%d recoveries=%d false-positives=%d \
           flaps=%d suppressed-now=%d@."
          h.h_hellos h.h_detections h.h_recoveries h.h_false_positives
          h.h_flaps h.h_suppressed;
        (* dgmc-analyze: allow float-format — human-readable summary the CI
           gate greps for within-bound, not a schema *)
        Format.printf
          "health: p99-detection=%.6f bound=%.6f within-bound=%b@." p99
          h.h_bound
          (p99 <= h.h_bound));
      (match monitor with
      | Some m ->
        (match Check.Monitor.violations m with
        | [] ->
          Format.printf "invariant monitor: %d sweeps, no violations@."
            (Check.Monitor.sweeps m)
        | vs ->
          Format.printf "invariant monitor: %d violation(s):@."
            (List.length vs);
          List.iter (fun v -> Format.printf "  %s@." v) vs)
      | None -> ());
      if
        List.exists
          (fun mc -> Dgmc.Protocol.divergence net mc <> [])
          script.mcs
        || not (Option.fold ~none:true ~some:Check.Monitor.ok monitor)
      then exit 1
  in
  Cmd.v
    (Cmd.info "script"
       ~doc:"Run a scenario file (see lib/workload/script.mli for the format).")
    Term.(
      const run $ file_arg $ trace_file_arg $ dot_arg $ check_arg $ faults_arg
      $ fault_seed_arg $ health_arg)

(* ------------------------------------------------------------------ *)
(* topo: inspect generated topologies *)

let topo_cmd =
  let n_arg =
    Arg.(value & opt size 40 & info [ "n" ] ~doc:"Network size (at least 2).")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let dump_arg =
    Arg.(value & flag & info [ "edges" ] ~doc:"Also dump the edge list.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of stats.")
  in
  let run n seed dump dot =
    let g = Experiments.Harness.graph_for ~seed ~n in
    if dot then print_string (Net.Dot.graph g)
    else begin
      Printf.printf "switches:     %d\n" (Net.Graph.n_nodes g);
      Printf.printf "links:        %d\n" (Net.Graph.n_edges g);
      (* dgmc-analyze: allow float-format — human-readable topology stats *)
      Printf.printf "mean degree:  %.2f\n"
        (2.0 *. float_of_int (Net.Graph.n_edges g) /. float_of_int n);
      Printf.printf "hop diameter: %d\n" (Net.Bfs.hop_diameter g);
      Printf.printf "connected:    %b\n" (Net.Bfs.is_connected g);
      if dump then Format.printf "%a@." Net.Graph.pp g
    end
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Inspect the experiment topology for a seed/size.")
    Term.(const run $ n_arg $ seed_arg $ dump_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* fuzz: the default term, so `dgmc_sim --fuzz --seed N` works without a
   subcommand — that literal spelling is what failure reports print. *)

(* Trace capture re-runs one case with full observability: the seed
   regenerates the identical case, so the captured trace is exactly the
   failing (or passing) run.  Shrinking is skipped — the trace records
   the unshrunk case the repro line names. *)
let fuzz_traced ~seed ~iterations ~health ~trace_file =
  if iterations <> 1 then begin
    prerr_endline
      "dgmc_sim --fuzz --trace: tracing captures a single case; pass \
       --iterations 1 (and --seed N for the case to capture).";
    exit 2
  end;
  let trace, finish_trace = make_trace ~cap:200_000 (Some trace_file) in
  let case = Check.Fuzz.case_of_seed ~health seed in
  let outcome = Check.Fuzz.run_case ~trace case in
  finish_trace ();
  match outcome with
  | Ok _ -> Printf.printf "fuzz: seed %d passed (1 case)\n" seed
  | Error problems ->
    Printf.printf "fuzz: seed %d FAILED:\n" seed;
    List.iter (fun p -> Printf.printf "  %s\n" p) problems;
    exit 1

let fuzz_run ~seed ~iterations ~health ~domains ~verbose =
  let progress s =
    if verbose then
      Format.printf "%a@." Check.Fuzz.pp_case (Check.Fuzz.case_of_seed ~health s)
  in
  let o = Check.Fuzz.run ~health ~domains ~progress ~seed ~iterations in
  let agg f = List.fold_left (fun a s -> a + f s) 0 o.Check.Fuzz.o_stats in
  Printf.printf "fuzz: %d/%d cases passed (seeds %d..%d)\n"
    (List.length o.o_stats) iterations seed
    (seed + iterations - 1);
  Printf.printf
    "  protocol: %d events, %d computations (%d withdrawn), %d messages, %d \
     acks, %d retransmissions\n"
    (agg (fun s -> s.Check.Fuzz.s_totals.events))
    (agg (fun s -> s.Check.Fuzz.s_totals.computations))
    (agg (fun s -> s.Check.Fuzz.s_totals.computations_withdrawn))
    (agg (fun s -> s.Check.Fuzz.s_totals.messages))
    (agg (fun s -> s.Check.Fuzz.s_totals.acks))
    (agg (fun s -> s.Check.Fuzz.s_totals.retransmissions));
  Printf.printf
    "  faults:   %d transmissions, %d dropped, %d duplicated, %d reordered, \
     %d blocked\n"
    (agg (fun s -> s.Check.Fuzz.s_faults.transmissions))
    (agg (fun s -> s.Check.Fuzz.s_faults.dropped))
    (agg (fun s -> s.Check.Fuzz.s_faults.duplicated))
    (agg (fun s -> s.Check.Fuzz.s_faults.reordered))
    (agg (fun s ->
         s.Check.Fuzz.s_faults.blocked_crash
         + s.Check.Fuzz.s_faults.blocked_partition));
  Printf.printf "  monitor:  %d invariant sweeps\n"
    (agg (fun s -> s.Check.Fuzz.s_sweeps));
  match o.o_failures with
  | [] -> ()
  | failures ->
    List.iter
      (fun f -> Format.printf "%a@." Check.Fuzz.pp_failure f)
      failures;
    exit 1

(* ------------------------------------------------------------------ *)
(* search: guided fault-scenario search (Check.Search), spelled
   `dgmc_sim --search forward|backward` — the spelling repro lines
   print, so it lives on the default term next to --fuzz. *)

(* The bugs [--inject-bug] re-introduces, by command-line name. *)
let injectable_bugs =
  [
    ("stale-senders", Dgmc.Config.Skip_stale_sender_flag);
    ("asymmetric-tree", Dgmc.Config.Skip_secondary_senders);
  ]

(* A converter that keeps each value's spelling, so a repro line prints
   the option back as it was given. *)
let spelled parse =
  Arg.conv'
    ( (fun s -> Result.map (fun v -> (s, v)) (parse s)),
      fun ppf (s, _) -> Format.pp_print_string ppf s )

let spelled_opt parse default name doc =
  Arg.(
    value
    & opt (spelled parse) (default, Result.get_ok (parse default))
    & info [ name ] ~doc)

let search_graph spec =
  Workload.Script.graph_of_args ~line:0
    (String.split_on_char ' ' spec |> List.filter (fun s -> s <> ""))

(* MC kind [i] gets id [i + 1]. *)
let search_mcs spec =
  let kinds =
    List.filter_map
      (fun k ->
        match String.trim k with
        | "" -> None
        | k -> Some (k, Dgmc.Mc_id.kind_of_string k))
      (String.split_on_char ',' spec)
  in
  match List.find_opt (fun (_, kind) -> kind = None) kinds with
  | Some (k, _) -> Error (Printf.sprintf "unknown MC kind %S" k)
  | None when kinds = [] -> Error "needs at least one MC kind"
  | None ->
    Ok (List.mapi (fun i (_, kind) -> Dgmc.Mc_id.make (Option.get kind) (i + 1)) kinds)

(* Checks across options: forward search needs [--race], and [--race]
   and [--setup] events name the MCs of [--mcs] and the switches and
   links of [--graph]. *)
let search_usage m =
  prerr_endline ("dgmc_sim --search: " ^ m);
  exit 2

let search_main ~mode ~graph:(graph_spec, graph) ~regime ~mcs:(mcs_spec, mcs)
    ~race ~setup ~target:(target_spec, target) ~max_states ~max_len ~inject_bug
    ~domains =
  let config = { (regime_config regime) with Dgmc.Config.inject = inject_bug } in
  let parse_events what ~after s =
    match Check.Search.events_of_string ~mcs s with
    | Error m -> search_usage (what ^ ": " ^ m)
    | Ok evs -> (
      (* Crashes and recovers pair up across the setup and the race. *)
      match Check.Search.check_events ~graph (after @ evs) with
      | Ok () -> evs
      | Error m -> search_usage (what ^ ": " ^ m))
  in
  let setup =
    match setup with None -> [] | Some s -> parse_events "--setup" ~after:[] s
  in
  (* A forward repro of [events] under exactly this configuration. *)
  let repro events =
    String.concat ""
      [
        Printf.sprintf "dgmc_sim --search forward --graph %S --regime %s"
          graph_spec regime;
        (match inject_bug with
        | Some bug -> " --inject-bug " ^ name_in injectable_bugs bug
        | None -> "");
        Printf.sprintf " --mcs %s" mcs_spec;
        (match setup with
        | [] -> ""
        | evs ->
          Printf.sprintf " --setup %S" (Check.Search.events_to_string evs));
        Printf.sprintf " --race %S" (Check.Search.events_to_string events);
        (match target_spec with
        | "any" -> ""
        | t -> " --target-invariant " ^ t);
      ]
  in
  match mode with
  | `Forward ->
    let race =
      match race with
      | None -> search_usage "forward search needs --race \"<events>\""
      | Some s -> parse_events "--race" ~after:setup s
    in
    let scenario = { Check.Explore.graph; config; setup; race } in
    let o = Check.Search.forward ~target ~max_states ~domains scenario in
    Format.printf "%a@." Check.Search.pp_forward o;
    (match o.found with
    | None -> ()
    | Some _ ->
      Printf.printf "reproduce: %s\n" (repro race);
      exit 1)
  | `Backward ->
    let o =
      Check.Search.backward ~target ~max_len ~per_candidate_states:max_states
        ~domains ~graph ~config ~setup ~mcs
    in
    Format.printf "%a@." Check.Search.pp_backward o;
    match o.b_found with
    | Some (events, _) -> Printf.printf "reproduce: %s\n" (repro events)
    | None -> exit 1

let default_term =
  let fuzz_arg =
    Arg.(
      value & flag
      & info [ "fuzz" ]
          ~doc:
            "Run the deterministic protocol fuzzer: random topologies, \
             workloads and fault plans from $(b,--seed), full protocol + \
             invariant monitor per case, shrinking and a replayable repro \
             line on failure.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Base seed; iteration $(i,i) fuzzes seed + i.")
  in
  let iterations_arg =
    Arg.(
      value & opt (int_at_least 1) 25
      & info [ "iterations" ] ~doc:"Fuzz cases to run (at least 1).")
  in
  let domains_arg =
    domains_arg
      "Run fuzz cases on this many OCaml domains (Runner.Pool).  Each case \
       is a pure function of its seed, so the outcome — pass/fail counts, \
       counters, shrunk workloads, repro lines — is byte-identical for any \
       value."
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Print each generated case before running it.")
  in
  let health_band_arg =
    Arg.(
      value & flag
      & info [ "health-band" ]
          ~doc:
            "Fuzz with the opt-in link-health layer enabled (default \
             hello/detector parameters): detectors must discover every \
             scripted link change.  Same seed, same topology and \
             workload as the default band; message drops and \
             crash/partition windows are stripped so the terminal \
             ground-truth oracle stays sound.")
  in
  let search_arg =
    Arg.(
      value
      & opt (some (enum [ ("forward", `Forward); ("backward", `Backward) ])) None
      & info [ "search" ]
          ~doc:
            "Guided fault-scenario search.  $(b,forward): best-first from \
             $(b,--race) toward a $(b,--target-invariant) violation.  \
             $(b,backward): find a minimal fault sequence reproducing the \
             target, emitting a replayable repro line.  Byte-identical at \
             any $(b,--domains).")
  in
  let graph_arg =
    spelled_opt search_graph "ring 4" "graph"
      "Topology for --search, in script-directive syntax (e.g. $(b,\"ring \
       6\"), $(b,\"grid 3 3\"), $(b,\"waxman 12 seed=5\"))."
  in
  let search_mcs_arg =
    spelled_opt search_mcs "symmetric" "mcs"
      "Comma-separated MC kinds for --search (symmetric, receiver-only, \
       asymmetric); kind $(i,i) gets id $(i,i+1)."
  in
  let race_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "race" ]
          ~doc:
            "Concurrent events for --search forward, e.g. $(b,\"join 0 \
             mc=1; join 2 mc=1\"): script $(b,at) events \
             (join, leave, linkdown, linkup; same options and role \
             defaults) plus crash and recover.")
  in
  let setup_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "setup" ]
          ~doc:"Events injected and settled before the race (same syntax).")
  in
  let target_arg =
    spelled_opt Check.Search.target_of_string "any" "target-invariant"
      "Invariant to hunt: a law-name prefix, optionally $(b,law@kind) (e.g. \
       $(b,agreement), $(b,terminals-match@asymmetric)); $(b,any) matches \
       all."
  in
  let max_states_arg =
    Arg.(
      value & opt (int_at_least 1) 50_000
      & info [ "max-states" ]
          ~doc:
            "State bound per forward search (per candidate in backward \
             mode; at least 1).")
  in
  let max_len_arg =
    Arg.(
      value & opt (int_at_least 1) 4
      & info [ "max-len" ]
          ~doc:
            "Longest fault sequence backward search considers (at least 1).")
  in
  let inject_bug_arg =
    Arg.(
      value
      & opt (some (enum injectable_bugs)) None
      & info [ "inject-bug" ]
          ~doc:
            "Re-inject a historical bug for --search to rediscover: \
             $(b,stale-senders) (no recompute flag on stale senders) or \
             $(b,asymmetric-tree) (secondary senders left off the span).")
  in
  (* An option of the other mode, or of no mode given, is a usage error
     naming it, rather than an option the run silently ignores. *)
  let run fuzz search seed iterations domains verbose health_band graph regime
      mcs race setup target max_states max_len inject_bug trace_file =
    let fuzz_only =
      [ ("--verbose", verbose); ("--health-band", health_band);
        ("--trace", trace_file <> None) ]
    and search_only =
      [ ("--race", race <> None); ("--setup", setup <> None);
        ("--inject-bug", inject_bug <> None) ]
    in
    let given opts = Option.map fst (List.find_opt snd opts) in
    let refuse opt why = `Error (true, Printf.sprintf "option '%s': %s" opt why) in
    match search with
    | Some mode -> (
      match (given (("--fuzz", fuzz) :: fuzz_only), mode, race) with
      | Some opt, _, _ -> refuse opt "--search does not take it"
      | None, `Backward, Some _ ->
        refuse "--race" "--search backward does not take it"
      | None, _, _ ->
        search_main ~mode ~graph ~regime ~mcs ~race ~setup ~target
          ~max_states ~max_len ~inject_bug ~domains;
        `Ok ())
    | None when fuzz -> (
      match given search_only with
      | Some opt -> refuse opt "--fuzz does not take it"
      | None ->
        (match trace_file with
        | Some trace_file ->
          fuzz_traced ~seed ~iterations ~health:health_band ~trace_file
        | None ->
          fuzz_run ~seed ~iterations ~health:health_band ~domains ~verbose);
        `Ok ())
    | None -> (
      match (given fuzz_only, given search_only) with
      | Some opt, _ -> refuse opt "needs --fuzz"
      | None, Some opt -> refuse opt "needs --search"
      | None, None -> `Help (`Pager, None))
  in
  Term.(
    ret
      (const run $ fuzz_arg $ search_arg $ seed_arg $ iterations_arg
     $ domains_arg $ verbose_arg $ health_band_arg $ graph_arg
     $ regime_arg "Parameter regime for --search: atm or wan."
     $ search_mcs_arg $ race_arg $ setup_arg
     $ target_arg $ max_states_arg $ max_len_arg
     $ inject_bug_arg $ trace_file_arg))

let () =
  let doc = "D-GMC multipoint-connection protocol simulation study" in
  let info = Cmd.info "dgmc_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_term info
          [
            fig6_cmd; fig7_cmd; fig8_cmd; compare_cmd; cbt_cmd; ablation_cmd;
            hierarchy_cmd; extra_cmd;
            run_cmd; script_cmd; topo_cmd;
          ]))
