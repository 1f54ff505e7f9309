(* End-to-end integration tests: multi-phase protocol scenarios and the
   experiment harness that regenerates the paper's figures. *)

let check = Alcotest.check

let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

let assert_converged name net =
  match Dgmc.Protocol.divergence net mc with
  | [] -> ()
  | reasons -> Alcotest.failf "%s: %s" name (String.concat "; " reasons)

(* ------------------------------------------------------------------ *)
(* Multi-phase lifecycle, both regimes *)

let lifecycle_phases config seed n () =
  let graph = Experiments.Harness.graph_for ~seed ~n in
  let net = Dgmc.Protocol.create ~graph ~config () in
  let monitor = Check.Monitor.attach net in
  let rng = Sim.Rng.create (seed * 31) in
  let window =
    Float.max config.Dgmc.Config.tc
      (Lsr.Flooding.flood_diameter ~graph ~t_hop:config.Dgmc.Config.t_hop)
  in
  (* Phase 1: join burst. *)
  Workload.Events.apply_dgmc net
    (Workload.Bursty.joins rng ~n ~mc ~members:8 ~window ());
  Dgmc.Protocol.run net;
  assert_converged "join burst" net;
  (* Phase 2: conflicting churn burst. *)
  let current =
    Dgmc.Member.ids
      (Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 0) mc))
  in
  let start = Sim.Engine.now (Dgmc.Protocol.engine net) in
  Workload.Events.apply_dgmc net
    (Oracle.Bursty.churn rng ~current ~n ~mc ~joins:3 ~leaves:3 ~window ~start ());
  Dgmc.Protocol.run net;
  assert_converged "churn burst" net;
  (* Phase 3: a non-partitioning tree link fails; the topology heals. *)
  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc) in
  let non_bridge =
    List.find_opt
      (fun (u, v) ->
        let g = Net.Graph.copy graph in
        Net.Graph.set_link g u v ~up:false;
        Net.Bfs.is_connected g)
      (Mctree.Tree.edges tree)
  in
  (match non_bridge with
  | Some (u, v) ->
    Oracle.Protocol.link_down net u v;
    Dgmc.Protocol.run net;
    assert_converged "link failure" net;
    let tree' = Option.get (Dgmc.Protocol.agreed_topology net mc) in
    check Alcotest.bool "dead link evicted" false (Mctree.Tree.mem_edge tree' u v);
    Oracle.Protocol.link_up net u v;
    Dgmc.Protocol.run net;
    assert_converged "link recovery" net
  | None -> ());
  (* Phase 4: everyone leaves; all state evaporates. *)
  let current =
    Dgmc.Member.ids
      (Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 0) mc))
  in
  let start = Sim.Engine.now (Dgmc.Protocol.engine net) in
  List.iteri
    (fun i s ->
      Dgmc.Protocol.schedule_leave net
        ~at:(start +. (float_of_int i *. window /. 8.0))
        ~switch:s mc)
    current;
  Dgmc.Protocol.run net;
  assert_converged "drain" net;
  for i = 0 to n - 1 do
    if Dgmc.Switch.members (Dgmc.Protocol.switch net i) mc <> None then
      Alcotest.failf "zombie state at switch %d" i
  done;
  (* The runtime monitor swept the invariant catalogue on every state
     change across all four phases. *)
  Check.Monitor.check_terminal monitor;
  Oracle.Monitor.assert_ok monitor

(* ------------------------------------------------------------------ *)
(* Harness runs *)

let test_bursty_run_fields () =
  let r =
    Experiments.Harness.bursty_run ~seed:1 ~n:20 ~config:Dgmc.Config.atm_lan
      ~members:10 ()
  in
  check Alcotest.int "n" 20 r.n;
  check Alcotest.int "events" 10 r.events;
  check Alcotest.bool "converged" true r.converged;
  check Alcotest.bool "computations measured" true (r.computations_per_event > 0.0);
  check Alcotest.bool "floodings measured" true (r.floodings_per_event > 0.0);
  check Alcotest.bool "convergence measured" true (r.convergence_rounds <> None)

let test_bursty_run_deterministic () =
  let run () =
    Experiments.Harness.bursty_run ~seed:7 ~n:30 ~config:Dgmc.Config.wan
      ~members:10 ()
  in
  let a = run () and b = run () in
  check Alcotest.bool "identical measurements" true (a = b)

let test_poisson_run_minimal_overhead () =
  let r =
    Experiments.Harness.poisson_run ~seed:2 ~n:20 ~config:Dgmc.Config.atm_lan
      ~events:20 ~gap_rounds:50.0 ()
  in
  check Alcotest.bool "converged" true r.converged;
  (* Experiment 3's claim: sparse events are handled individually — one
     computation and one flooding each. *)
  check Alcotest.bool "~1 computation/event" true (r.computations_per_event < 1.2);
  check Alcotest.bool "~1 flooding/event" true (r.floodings_per_event < 1.2)

let test_brute_force_run_scales_with_n () =
  let r20 =
    Experiments.Harness.brute_force_bursty_run ~seed:1 ~n:20
      ~config:Dgmc.Config.atm_lan ~members:10
  in
  let r40 =
    Experiments.Harness.brute_force_bursty_run ~seed:1 ~n:40
      ~config:Dgmc.Config.atm_lan ~members:10
  in
  check Alcotest.(float 0.3) "n=20: 20 computations/event" 20.0
    r20.computations_per_event;
  check Alcotest.(float 0.3) "n=40: 40 computations/event" 40.0
    r40.computations_per_event;
  check Alcotest.bool "brute force settles" true r20.converged

let test_dgmc_beats_brute_force () =
  let dgmc =
    Experiments.Harness.bursty_run ~seed:3 ~n:60 ~config:Dgmc.Config.atm_lan
      ~members:10 ()
  in
  let brute =
    Experiments.Harness.brute_force_bursty_run ~seed:3 ~n:60
      ~config:Dgmc.Config.atm_lan ~members:10
  in
  check Alcotest.bool "an order of magnitude fewer computations" true
    (dgmc.computations_per_event *. 5.0 < brute.computations_per_event)

let test_mospf_run_grows_with_sources () =
  let run sources =
    (Experiments.Harness.mospf_bursty_run ~seed:4 ~n:40 ~config:Dgmc.Config.atm_lan
       ~members:10 ~sources)
      .computations_per_event
  in
  check Alcotest.bool "more sources, more computations" true (run 1 < run 5)

(* ------------------------------------------------------------------ *)
(* Figure sweeps (tiny parameterizations) *)

let test_fig6_shape () =
  let r = Experiments.Figures.fig6 ~sizes:[ 15; 25 ] ~seeds:[ 1; 2 ] () in
  check Alcotest.bool "all converged" true r.all_converged;
  check Alcotest.int "two points" 2 (List.length r.proposals.points);
  List.iter
    (fun (_, (s : Metrics.Stats.summary)) ->
      if s.mean <= 0.0 || s.mean > 10.0 then
        Alcotest.failf "computation-dominated overhead out of band: %f" s.mean)
    r.proposals.points

let test_fig7_shape () =
  let r = Experiments.Figures.fig7 ~sizes:[ 15; 25 ] ~seeds:[ 1; 2 ] () in
  check Alcotest.bool "all converged" true r.all_converged;
  (* WAN regime: more conflict, more computations than the ATM regime
     (the paper's Experiment 2 observation). *)
  let atm = Experiments.Figures.fig6 ~sizes:[ 15; 25 ] ~seeds:[ 1; 2 ] () in
  let mean_of (s : Experiments.Figures.series) =
    Metrics.Stats.mean (List.map (fun (_, p) -> p.Metrics.Stats.mean) s.points)
  in
  check Alcotest.bool "wan costs more per event" true
    (mean_of r.proposals > mean_of atm.proposals)

let test_fig8_shape () =
  let r = Experiments.Figures.fig8 ~sizes:[ 15 ] ~seeds:[ 1; 2 ] ~events:15 () in
  check Alcotest.bool "converged" true r.n_all_converged;
  List.iter
    (fun (_, (s : Metrics.Stats.summary)) ->
      if s.mean > 1.3 then Alcotest.failf "normal-period overhead too high: %f" s.mean)
    r.n_proposals.points

let test_compare_ordering () =
  let c =
    Experiments.Figures.compare_protocols ~sizes:[ 20; 40 ] ~seeds:[ 1 ] ()
  in
  List.iter
    (fun n ->
      let get (s : Experiments.Figures.series) =
        (List.assoc n s.points).Metrics.Stats.mean
      in
      (* The paper's ranking: D-GMC < MOSPF < brute force. *)
      if not (get c.dgmc_computations < get c.mospf_computations) then
        Alcotest.failf "dgmc should beat mospf at n=%d" n;
      if not (get c.mospf_computations < get c.brute_computations) then
        Alcotest.failf "mospf should beat brute force at n=%d" n)
    c.c_sizes

let test_cbt_comparison_shape () =
  let rows = Experiments.Figures.cbt_comparison ~seed:2 ~n:40 ~receivers:8 ~senders:4 () in
  check Alcotest.int "six configurations" 6 (List.length rows);
  let find prefix =
    List.find
      (fun (r : Experiments.Figures.cbt_row) ->
        String.length r.strategy >= String.length prefix
        && String.sub r.strategy 0 (String.length prefix) = prefix)
      rows
  in
  let per_source = find "dgmc per-source" in
  let shared = find "dgmc shared" in
  (* Traffic concentration: the shared tree loads its links close to the
     maximum; per-source trees spread the same traffic wider. *)
  check Alcotest.bool "per-source uses more links" true
    (per_source.links_used > shared.links_used);
  check Alcotest.bool "per-source spreads load" true
    (per_source.mean_link_load < shared.mean_link_load);
  (* CBT pays control messages; D-GMC's data-plane rows don't (their
     signaling is counted by the protocol benches). *)
  List.iter
    (fun (r : Experiments.Figures.cbt_row) ->
      if String.length r.strategy >= 3 && String.sub r.strategy 0 3 = "cbt" then begin
        check Alcotest.bool "cbt grafting messages counted" true
          (r.control_messages > 0);
        check Alcotest.bool "trees cost something" true (r.tree_cost > 0.0)
      end)
    rows

(* ------------------------------------------------------------------ *)
(* Extension-experiment harnesses (tiny parameterizations) *)

let test_scale_hierarchy_wins () =
  let rows = Experiments.Scale.hier_vs_flat ~seeds:[ 1 ] ~areas:4 ~per_area:8 ~events:8 () in
  match rows with
  | [ flat; hier ] ->
    check Alcotest.string "flat row" "flat" flat.protocol;
    check Alcotest.string "hier row" "hierarchical" hier.protocol;
    check Alcotest.bool "both converged" true (flat.converged && hier.converged);
    check Alcotest.bool "hierarchy reaches fewer switches" true
      (hier.reach_per_event < flat.reach_per_event);
    check Alcotest.bool "hierarchy sends fewer messages" true
      (hier.messages_per_event < flat.messages_per_event)
  | _ -> Alcotest.fail "expected two rows"

let test_extra_burst_sweep () =
  let rows = Experiments.Extra.burst_size ~seeds:[ 1; 2 ] ~n:20 ~sizes:[ 2; 6 ] () in
  check Alcotest.int "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Experiments.Extra.burst_row) ->
      check Alcotest.bool "converged" true r.all_converged;
      check Alcotest.bool "bounded overhead" true
        (r.proposals_per_event.Metrics.Stats.mean < 10.0))
    rows

let test_extra_independence_flat () =
  let rows =
    Experiments.Extra.mc_independence ~seeds:[ 1; 2 ] ~n:20 ~counts:[ 1; 3 ]
      ~members:4 ()
  in
  match rows with
  | [ one; three ] ->
    check Alcotest.bool "converged" true (one.i_all_converged && three.i_all_converged);
    (* Independence: per-MC cost does not grow with concurrency. *)
    check Alcotest.bool "per-MC computations flat" true
      (Float.abs
         (one.per_mc_computations.Metrics.Stats.mean
         -. three.per_mc_computations.Metrics.Stats.mean)
      < 0.75)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_incremental_converges () =
  let rows =
    Experiments.Ablation.incremental_vs_scratch ~seeds:[ 1 ] ~n:20 ~churn_events:6 ()
  in
  List.iter
    (fun (r : Experiments.Ablation.incremental_row) ->
      check Alcotest.bool (r.label ^ " converged") true r.all_converged;
      check Alcotest.bool "sane cost ratio" true
        (r.mean_cost_ratio > 0.5 && r.mean_cost_ratio < 3.0))
    rows

let () =
  Alcotest.run "integration"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "atm regime, n=20" `Quick
            (lifecycle_phases Dgmc.Config.atm_lan 1 20);
          Alcotest.test_case "atm regime, n=35" `Quick
            (lifecycle_phases Dgmc.Config.atm_lan 2 35);
          Alcotest.test_case "wan regime, n=20" `Quick
            (lifecycle_phases Dgmc.Config.wan 3 20);
          Alcotest.test_case "wan regime, n=35" `Quick
            (lifecycle_phases Dgmc.Config.wan 4 35);
        ] );
      ( "harness",
        [
          Alcotest.test_case "bursty run fields" `Quick test_bursty_run_fields;
          Alcotest.test_case "deterministic" `Quick test_bursty_run_deterministic;
          Alcotest.test_case "poisson minimal overhead" `Quick
            test_poisson_run_minimal_overhead;
          Alcotest.test_case "brute force scales with n" `Quick
            test_brute_force_run_scales_with_n;
          Alcotest.test_case "dgmc beats brute force" `Quick
            test_dgmc_beats_brute_force;
          Alcotest.test_case "mospf grows with sources" `Quick
            test_mospf_run_grows_with_sources;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig6 shape" `Slow test_fig6_shape;
          Alcotest.test_case "fig7 shape" `Slow test_fig7_shape;
          Alcotest.test_case "fig8 shape" `Slow test_fig8_shape;
          Alcotest.test_case "comparison ordering" `Slow test_compare_ordering;
          Alcotest.test_case "cbt comparison shape" `Quick
            test_cbt_comparison_shape;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "hierarchy beats flat on reach" `Quick
            test_scale_hierarchy_wins;
          Alcotest.test_case "burst sweep" `Quick test_extra_burst_sweep;
          Alcotest.test_case "per-MC independence" `Quick
            test_extra_independence_flat;
          Alcotest.test_case "incremental ablation" `Quick
            test_ablation_incremental_converges;
        ] );
    ]
