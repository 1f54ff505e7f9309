(* Scenario tests for the D-GMC protocol (lib/core: Switch + Protocol).
   These exercise the EventHandler/ReceiveLSA machinery of the paper's
   Figures 4 and 5 end to end on small networks. *)

let check = Alcotest.check

let mc_sym = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

let make_net ?(config = Dgmc.Config.atm_lan) graph =
  Dgmc.Protocol.create ~graph ~config ()

let assert_converged ?(msg = "network-wide agreement") net mc =
  if not (Dgmc.Protocol.converged net mc) then
    Alcotest.failf "%s: %s" msg
      (String.concat "; " (Dgmc.Protocol.divergence net mc))

let grid33 () = Net.Topo_gen.grid ~rows:3 ~cols:3 ()

(* ------------------------------------------------------------------ *)
(* Creation, single events *)

let test_single_join_creates_mc_everywhere () =
  let net = make_net (grid33 ()) in
  Dgmc.Protocol.join net ~switch:4 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  for i = 0 to 8 do
    match Dgmc.Switch.members (Dgmc.Protocol.switch net i) mc_sym with
    | Some m -> check Alcotest.(list int) "member list" [ 4 ] (Dgmc.Member.ids m)
    | None -> Alcotest.failf "switch %d has no state" i
  done

let test_single_join_costs_one_computation_one_flooding () =
  let net = make_net (grid33 ()) in
  Dgmc.Protocol.join net ~switch:4 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  let t = Dgmc.Protocol.totals net in
  check Alcotest.int "events" 1 t.events;
  check Alcotest.int "one computation" 1 t.computations;
  check Alcotest.int "one flooding" 1 t.mc_floodings;
  check Alcotest.int "no withdrawals" 0 t.computations_withdrawn

let test_two_members_topology_is_path () =
  let net = make_net (Net.Topo_gen.line 5) in
  Dgmc.Protocol.join net ~switch:0 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  Dgmc.Protocol.join net ~switch:4 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc_sym) in
  check
    Alcotest.(list (pair int int))
    "path tree"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ]
    (Mctree.Tree.edges tree)

let test_sequential_joins_converge () =
  let net = make_net (grid33 ()) in
  List.iter
    (fun s ->
      Dgmc.Protocol.join net ~switch:s mc_sym Dgmc.Member.Both;
      Dgmc.Protocol.run net;
      assert_converged ~msg:(Printf.sprintf "after join %d" s) net mc_sym)
    [ 0; 8; 2; 6; 4 ]

let test_simultaneous_joins_converge () =
  let net = make_net (grid33 ()) in
  (* All joins at exactly t = 0: maximal conflict. *)
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 2; 6; 8 ];
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  let m = Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 1) mc_sym) in
  check Alcotest.(list int) "all four members" [ 0; 2; 6; 8 ] (Dgmc.Member.ids m)

let test_leave_updates_topology () =
  let net = make_net (Net.Topo_gen.line 5) in
  List.iter
    (fun s ->
      Dgmc.Protocol.join net ~switch:s mc_sym Dgmc.Member.Both;
      Dgmc.Protocol.run net)
    [ 0; 2; 4 ];
  Dgmc.Protocol.leave net ~switch:4 mc_sym;
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc_sym) in
  check Alcotest.(list (pair int int)) "branch pruned" [ (0, 1); (1, 2) ]
    (Mctree.Tree.edges tree)

let test_full_drain_deletes_state () =
  let net = make_net (grid33 ()) in
  List.iter
    (fun s ->
      Dgmc.Protocol.join net ~switch:s mc_sym Dgmc.Member.Both;
      Dgmc.Protocol.run net)
    [ 0; 4; 8 ];
  List.iter
    (fun s ->
      Dgmc.Protocol.leave net ~switch:s mc_sym;
      Dgmc.Protocol.run net)
    [ 0; 4; 8 ];
  assert_converged net mc_sym;
  for i = 0 to 8 do
    check Alcotest.bool
      (Printf.sprintf "switch %d state deleted" i)
      true
      (Dgmc.Switch.members (Dgmc.Protocol.switch net i) mc_sym = None)
  done

let test_simultaneous_drain_deletes_state () =
  let net = make_net (grid33 ()) in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 4; 8 ];
  Dgmc.Protocol.run net;
  let t1 = Sim.Engine.now (Dgmc.Protocol.engine net) +. 1.0 in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_leave net ~at:t1 ~switch:s mc_sym)
    [ 0; 4; 8 ];
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  for i = 0 to 8 do
    check Alcotest.bool "deleted" true
      (Dgmc.Switch.members (Dgmc.Protocol.switch net i) mc_sym = None)
  done

(* ------------------------------------------------------------------ *)
(* Timestamps at quiescence *)

let test_stamps_settle_equal () =
  let net = make_net (grid33 ()) in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 8 ];
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  let r0, e0, c0 = Option.get (Dgmc.Switch.stamps (Dgmc.Protocol.switch net 0) mc_sym) in
  check Alcotest.bool "R = E at quiescence" true (Dgmc.Timestamp.equal r0 e0);
  check Alcotest.bool "C <= R" true (Dgmc.Timestamp.geq r0 c0);
  for i = 1 to 8 do
    let r, _, _ = Option.get (Dgmc.Switch.stamps (Dgmc.Protocol.switch net i) mc_sym) in
    check Alcotest.bool "all R equal" true (Dgmc.Timestamp.equal r r0)
  done

(* ------------------------------------------------------------------ *)
(* MC types *)

let test_receiver_only_mc () =
  let net = make_net (grid33 ()) in
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Receiver_only 5 in
  List.iter
    (fun s -> Dgmc.Protocol.join net ~switch:s mc Dgmc.Member.Receiver)
    [ 0; 8 ];
  Dgmc.Protocol.run net;
  assert_converged net mc;
  (* A non-member can reach the agreed tree by two-stage delivery. *)
  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc) in
  let report = Mctree.Delivery.two_stage (Dgmc.Protocol.graph net) tree ~src:2 in
  check Alcotest.(list int) "both receivers reached" [ 0; 8 ]
    (List.map (fun (d : Mctree.Delivery.delivery) -> d.receiver) report.deliveries)

let test_asymmetric_mc () =
  let net = make_net (grid33 ()) in
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Asymmetric 6 in
  Dgmc.Protocol.join net ~switch:4 mc Dgmc.Member.Sender;
  List.iter
    (fun s -> Dgmc.Protocol.join net ~switch:s mc Dgmc.Member.Receiver)
    [ 0; 2; 6; 8 ];
  Dgmc.Protocol.run net;
  assert_converged net mc;
  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc) in
  (* Source-rooted: every receiver sits at its shortest-path distance
     from the sender. *)
  List.iter
    (fun (receiver, delay) ->
      check Alcotest.(float 1e-9) "spt distance"
        (Oracle.Dijkstra.distance (Dgmc.Protocol.graph net) 4 receiver)
        delay)
    (Oracle.Delivery.delays (Dgmc.Protocol.graph net) tree ~root:4)

let test_independent_mcs () =
  let net = make_net (grid33 ()) in
  let mc_a = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
  let mc_b = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 2 in
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:0 mc_a Dgmc.Member.Both;
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:8 mc_a Dgmc.Member.Both;
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:2 mc_b Dgmc.Member.Both;
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:6 mc_b Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  assert_converged ~msg:"mc_a" net mc_a;
  assert_converged ~msg:"mc_b" net mc_b;
  let members mc i =
    Dgmc.Member.ids (Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net i) mc))
  in
  check Alcotest.(list int) "mc_a members" [ 0; 8 ] (members mc_a 3);
  check Alcotest.(list int) "mc_b members" [ 2; 6 ] (members mc_b 3)

(* ------------------------------------------------------------------ *)
(* Link events *)

let test_link_failure_repairs_topology () =
  let net = make_net (grid33 ()) in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 8 ];
  Dgmc.Protocol.run net;
  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc_sym) in
  let u, v = List.hd (Mctree.Tree.edges tree) in
  Oracle.Protocol.link_down net u v;
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  let tree' = Option.get (Dgmc.Protocol.agreed_topology net mc_sym) in
  check Alcotest.bool "dead link absent" false (Mctree.Tree.mem_edge tree' u v);
  check Alcotest.bool "valid repair" true
    (Mctree.Tree.is_valid_mc_topology (Dgmc.Protocol.graph net) tree')

let test_link_failure_off_tree_is_ignored_by_mc () =
  let net = make_net (grid33 ()) in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 1 ];
  Dgmc.Protocol.run net;
  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc_sym) in
  (* Find a link not on the tree. *)
  let off =
    List.find
      (fun (e : Net.Graph.edge) -> not (Mctree.Tree.mem_edge tree e.u e.v))
      (Net.Graph.edges (Dgmc.Protocol.graph net))
  in
  Dgmc.Protocol.reset_counters net;
  Oracle.Protocol.link_down net off.u off.v;
  Dgmc.Protocol.run net;
  let t = Dgmc.Protocol.totals net in
  check Alcotest.int "non-MC LSAs flooded" 2 t.link_floodings;
  check Alcotest.int "no MC LSAs" 0 t.mc_floodings;
  check Alcotest.int "no computations" 0 t.computations;
  assert_converged net mc_sym

let test_link_recovery_floods_but_keeps_topology () =
  let net = make_net (grid33 ()) in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 8 ];
  Dgmc.Protocol.run net;
  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc_sym) in
  let u, v = List.hd (Mctree.Tree.edges tree) in
  Oracle.Protocol.link_down net u v;
  Dgmc.Protocol.run net;
  let repaired = Option.get (Dgmc.Protocol.agreed_topology net mc_sym) in
  Dgmc.Protocol.reset_counters net;
  Oracle.Protocol.link_up net u v;
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  let t = Dgmc.Protocol.totals net in
  check Alcotest.int "recovery advertised" 2 t.link_floodings;
  check Alcotest.int "no reactive MC work" 0 t.mc_floodings;
  check Alcotest.bool "repaired topology kept" true
    (Mctree.Tree.equal repaired
       (Option.get (Dgmc.Protocol.agreed_topology net mc_sym)))

let test_figure2_lsa_accounting () =
  (* Figure 2: a link event produces one non-MC LSA per detecting
     endpoint plus one MC LSA per affected connection per detector. *)
  let graph = Net.Topo_gen.grid ~rows:3 ~cols:3 () in
  let net = make_net graph in
  let k = 4 in
  let mcs = List.init k (fun i -> Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric (i + 1)) in
  (* All k MCs share members 0 and 8, hence (given determinism) the same
     tree and the same links. *)
  List.iter
    (fun m ->
      Dgmc.Protocol.join net ~switch:0 m Dgmc.Member.Both;
      Dgmc.Protocol.join net ~switch:8 m Dgmc.Member.Both;
      Dgmc.Protocol.run net)
    mcs;
  List.iter (fun m -> assert_converged ~msg:"setup" net m) mcs;
  let tree = Option.get (Dgmc.Protocol.agreed_topology net (List.hd mcs)) in
  let u, v = List.hd (Mctree.Tree.edges tree) in
  Dgmc.Protocol.reset_counters net;
  Oracle.Protocol.link_down net u v;
  Dgmc.Protocol.run net;
  List.iter (fun m -> assert_converged ~msg:"repair" net m) mcs;
  let t = Dgmc.Protocol.totals net in
  check Alcotest.int "one non-MC LSA per endpoint" 2 t.link_floodings;
  (* Each endpoint raises one link event per affected MC; every one of
     those event LSAs is flooded (with or without a proposal). *)
  check Alcotest.bool "at least one MC LSA per MC" true (t.mc_floodings >= k);
  check Alcotest.bool "MC LSAs bounded by detectors x MCs + reconciliation" true
    (t.mc_floodings <= 4 * k);
  (* Activity is per-MC independent: computations happened for each. *)
  check Alcotest.bool "computations for every MC" true (t.computations >= k)

let test_partition_converges_per_side () =
  (* Two triangles joined by one bridge: cutting it partitions. *)
  let g =
    Oracle.Graph.of_edges 6
      [
        (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0);
        (3, 4, 1.0); (4, 5, 1.0); (3, 5, 1.0);
        (2, 3, 1.0);
      ]
  in
  let net = make_net g in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 5 ];
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  Oracle.Protocol.link_down net 2 3;
  Dgmc.Protocol.run net;
  (* Global agreement is impossible; each side must agree internally. *)
  check Alcotest.bool "left side agrees" true
    (Oracle.Protocol.converged_among net mc_sym [ 0; 1; 2 ]);
  check Alcotest.bool "right side agrees" true
    (Oracle.Protocol.converged_among net mc_sym [ 3; 4; 5 ]);
  (* Each side's topology must cover only its own member. *)
  let topo i =
    Option.get (Dgmc.Switch.topology (Dgmc.Protocol.switch net i) mc_sym)
  in
  check Alcotest.(list int) "left terminals" [ 0 ]
    (Mctree.Tree.terminals (topo 0));
  check Alcotest.(list int) "right terminals" [ 5 ]
    (Mctree.Tree.terminals (topo 5))

let test_partition_heals () =
  let g =
    Oracle.Graph.of_edges 6
      [
        (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0);
        (3, 4, 1.0); (4, 5, 1.0); (3, 5, 1.0);
        (2, 3, 1.0);
      ]
  in
  let net = make_net g in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 5 ];
  Dgmc.Protocol.run net;
  Oracle.Protocol.link_down net 2 3;
  Dgmc.Protocol.run net;
  Oracle.Protocol.link_up net 2 3;
  Dgmc.Protocol.run net;
  (* Healing the cut floods link-up non-MC LSAs; the split-brain MC
     state reconciles on the next membership event. *)
  Dgmc.Protocol.join net ~switch:1 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  assert_converged ~msg:"after heal + event" net mc_sym

(* ------------------------------------------------------------------ *)
(* Overhead accounting *)

let test_sparse_events_cost_one_computation_each () =
  let graph = grid33 () in
  let config = Dgmc.Config.atm_lan in
  let net = make_net ~config graph in
  let round = Dgmc.Config.round_length config ~graph in
  (* Events spaced 50 rounds apart: no conflicts, so exactly one
     computation and one flooding per event (Experiment 3's claim). *)
  List.iteri
    (fun i s ->
      Dgmc.Protocol.schedule_join net
        ~at:(float_of_int (i + 1) *. 50.0 *. round)
        ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 2; 6; 8; 4 ];
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  let t = Dgmc.Protocol.totals net in
  check Alcotest.int "events" 5 t.events;
  check Alcotest.int "computations = events" 5 t.computations;
  check Alcotest.int "floodings = events" 5 t.mc_floodings;
  check Alcotest.int "nothing withdrawn" 0 t.computations_withdrawn;
  check Alcotest.int "no triggered proposals" 0
    (t.mc_floodings - t.proposals_flooded)

let test_bursty_overhead_is_bounded () =
  let graph = Experiments.Harness.graph_for ~seed:2 ~n:40 in
  let net = make_net graph in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 5; 11; 17; 23; 29; 35; 39 ];
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  let t = Dgmc.Protocol.totals net in
  let per_event x = float_of_int x /. float_of_int t.events in
  (* The paper's headline: single-digit overhead per event even in
     bursts, versus n for the brute-force protocol. *)
  check Alcotest.bool "computations/event bounded" true
    (per_event t.computations < 10.0);
  check Alcotest.bool "floodings/event bounded" true
    (per_event t.mc_floodings < 10.0)

let test_counters_reset () =
  let net = make_net (grid33 ()) in
  Dgmc.Protocol.join net ~switch:0 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  Dgmc.Protocol.reset_counters net;
  let t = Dgmc.Protocol.totals net in
  check Alcotest.int "events" 0 t.events;
  check Alcotest.int "computations" 0 t.computations;
  check Alcotest.int "floodings" 0 t.mc_floodings;
  check Alcotest.int "messages" 0 t.messages;
  check Alcotest.bool "clock markers cleared" true
    (Dgmc.Protocol.convergence_rounds net = None);
  (* The convergence clock restarts at the first event after the reset:
     a later join of another MC settles in as many rounds as the same
     join on a fresh network. *)
  let mc2 = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 2 in
  let join_8 net ~at =
    Dgmc.Protocol.schedule_join net ~at ~switch:8 mc2 Dgmc.Member.Both;
    Dgmc.Protocol.run net;
    Dgmc.Protocol.convergence_rounds net
  in
  let fresh = join_8 (make_net (grid33 ())) ~at:0.0 in
  check Alcotest.bool "a fresh join takes time" true
    (Option.value ~default:0.0 fresh > 0.0);
  check Alcotest.(option (float 1e-9)) "measured from the later join" fresh
    (join_8 net ~at:(Oracle.Protocol.now net +. 5.0))

let test_convergence_rounds_measured () =
  let net = make_net (grid33 ()) in
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:0 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:8 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  match Dgmc.Protocol.convergence_rounds net with
  | Some r ->
    if r <= 0.0 || r > 20.0 then Alcotest.failf "implausible convergence: %f" r
  | None -> Alcotest.fail "convergence must be measurable"

(* ------------------------------------------------------------------ *)
(* Robustness details *)

let test_rejoin_after_leave () =
  let net = make_net (grid33 ()) in
  Dgmc.Protocol.join net ~switch:0 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  Dgmc.Protocol.join net ~switch:8 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  Dgmc.Protocol.leave net ~switch:8 mc_sym;
  Dgmc.Protocol.run net;
  Dgmc.Protocol.join net ~switch:8 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  assert_converged net mc_sym;
  let m = Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 3) mc_sym) in
  check Alcotest.(list int) "rejoined" [ 0; 8 ] (Dgmc.Member.ids m)

let test_role_change_is_an_event () =
  let net = make_net (grid33 ()) in
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Asymmetric 3 in
  Dgmc.Protocol.join net ~switch:0 mc Dgmc.Member.Sender;
  Dgmc.Protocol.join net ~switch:8 mc Dgmc.Member.Receiver;
  Dgmc.Protocol.run net;
  (* Switch 8 upgrades to sender+receiver. *)
  Dgmc.Protocol.join net ~switch:8 mc Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  assert_converged net mc;
  let m = Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 4) mc) in
  check Alcotest.bool "role propagated" true
    (Dgmc.Member.role m 8 = Some Dgmc.Member.Both)

let test_quiescent_reports_pending_work () =
  let net = make_net (grid33 ()) in
  Dgmc.Protocol.join net ~switch:0 mc_sym Dgmc.Member.Both;
  (* Before running, the joining switch has an in-flight computation. *)
  check Alcotest.bool "not quiescent mid-event" false
    (Dgmc.Switch.quiescent (Dgmc.Protocol.switch net 0) mc_sym);
  Dgmc.Protocol.run net;
  check Alcotest.bool "quiescent after run" true
    (Dgmc.Switch.quiescent (Dgmc.Protocol.switch net 0) mc_sym)

let test_trace_records_protocol_activity () =
  let trace = Sim.Trace.create () in
  let net =
    Dgmc.Protocol.create ~graph:(grid33 ()) ~config:Dgmc.Config.atm_lan ~trace ()
  in
  Dgmc.Protocol.join net ~switch:0 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.join net ~switch:8 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  check Alcotest.bool "computations traced" true
    (Oracle.Trace.count_category trace "compute" > 0);
  check Alcotest.bool "floods traced" true
    (Oracle.Trace.count_category trace "flood" > 0);
  (* Timestamps in the trace are monotone. *)
  let times =
    List.map (fun (e : Sim.Trace.entry) -> e.time) (Sim.Trace.entries trace)
  in
  check Alcotest.bool "monotone" true (List.sort compare times = times);
  Dgmc.Protocol.leave net ~switch:0 mc_sym;
  Dgmc.Protocol.leave net ~switch:8 mc_sym;
  Dgmc.Protocol.run net;
  check Alcotest.bool "deletions traced" true
    (Oracle.Trace.count_category trace "mc-delete" > 0)

let test_wan_regime_converges () =
  let net = make_net ~config:Dgmc.Config.wan (grid33 ()) in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc_sym Dgmc.Member.Both)
    [ 0; 2; 4; 6; 8 ];
  Dgmc.Protocol.run net;
  assert_converged net mc_sym

(* ------------------------------------------------------------------ *)
(* Observers and shared engines *)

let test_observer_receives_changed_switch () =
  let net = make_net (grid33 ()) in
  let ids = ref [] in
  Dgmc.Protocol.add_observer net (fun id -> ids := id :: !ids);
  Dgmc.Protocol.join net ~switch:7 mc_sym Dgmc.Member.Both;
  check Alcotest.(list int) "the joining switch reports first" [ 7 ] !ids;
  Dgmc.Protocol.run net;
  check Alcotest.(list int) "every switch installed the MC"
    (List.init 9 Fun.id) (List.sort_uniq Int.compare !ids)

let test_shared_engine_one_clock () =
  let a = make_net (grid33 ()) in
  let b =
    Dgmc.Protocol.create ~graph:(Net.Topo_gen.ring 4)
      ~config:Dgmc.Config.atm_lan ~engine:(Dgmc.Protocol.engine a) ()
  in
  check Alcotest.bool "same engine" true
    (Dgmc.Protocol.engine a == Dgmc.Protocol.engine b);
  Dgmc.Protocol.schedule_join a ~at:0.0 ~switch:0 mc_sym Dgmc.Member.Both;
  Dgmc.Protocol.schedule_join b ~at:1.0 ~switch:2 mc_sym Dgmc.Member.Both;
  (* Running one network drains the shared calendar, the other's events
     included, on one clock. *)
  Dgmc.Protocol.run a;
  assert_converged ~msg:"first network" a mc_sym;
  assert_converged ~msg:"second network" b mc_sym;
  (* Each network's convergence clock runs from its own first event to
     its own last change: the same as the network joined alone at 0. *)
  let alone graph switch =
    let net = make_net graph in
    Dgmc.Protocol.schedule_join net ~at:0.0 ~switch mc_sym Dgmc.Member.Both;
    Dgmc.Protocol.run net;
    Dgmc.Protocol.convergence_rounds net
  in
  check Alcotest.(option (float 1e-9)) "second network's first event"
    (alone (Net.Topo_gen.ring 4) 2)
    (Dgmc.Protocol.convergence_rounds b);
  check Alcotest.(option (float 1e-9))
    "first network settled before the second began"
    (alone (grid33 ()) 0)
    (Dgmc.Protocol.convergence_rounds a)

let test_engine_excludes_sinks () =
  let engine = Sim.Engine.create () in
  let create ?trace ?metrics () =
    ignore
      (Dgmc.Protocol.create ~graph:(grid33 ()) ~config:Dgmc.Config.atm_lan
         ~engine ?trace ?metrics ())
  in
  let rejected = Invalid_argument "Protocol.create: ~engine excludes ~trace and ~metrics" in
  Alcotest.check_raises "with a trace" rejected (fun () ->
      create ~trace:(Sim.Trace.create ()) ());
  Alcotest.check_raises "with a registry" rejected (fun () ->
      create ~metrics:(Metrics.Registry.create ()) ());
  create ()

(* A live series would install its probe on the shared engine, replacing
   the probe of the network that owns it. *)
let test_engine_excludes_live_series () =
  let engine = Sim.Engine.create () in
  let create series =
    ignore
      (Dgmc.Protocol.create ~graph:(grid33 ()) ~config:Dgmc.Config.atm_lan
         ~engine ~series ())
  in
  Alcotest.check_raises "with a live series"
    (Invalid_argument "Protocol.create: ~engine excludes a live ~series")
    (fun () -> create (Metrics.Series.create ()));
  create Metrics.Series.disabled

let () =
  Alcotest.run "dgmc-protocol"
    [
      ( "membership",
        [
          Alcotest.test_case "single join reaches everyone" `Quick
            test_single_join_creates_mc_everywhere;
          Alcotest.test_case "single join costs 1+1" `Quick
            test_single_join_costs_one_computation_one_flooding;
          Alcotest.test_case "two members form a path" `Quick
            test_two_members_topology_is_path;
          Alcotest.test_case "sequential joins" `Quick test_sequential_joins_converge;
          Alcotest.test_case "simultaneous joins" `Quick
            test_simultaneous_joins_converge;
          Alcotest.test_case "leave prunes" `Quick test_leave_updates_topology;
          Alcotest.test_case "full drain deletes state" `Quick
            test_full_drain_deletes_state;
          Alcotest.test_case "simultaneous drain" `Quick
            test_simultaneous_drain_deletes_state;
          Alcotest.test_case "rejoin after leave" `Quick test_rejoin_after_leave;
          Alcotest.test_case "role change" `Quick test_role_change_is_an_event;
        ] );
      ( "timestamps",
        [ Alcotest.test_case "stamps settle equal" `Quick test_stamps_settle_equal ] );
      ( "mc-types",
        [
          Alcotest.test_case "receiver-only" `Quick test_receiver_only_mc;
          Alcotest.test_case "asymmetric" `Quick test_asymmetric_mc;
          Alcotest.test_case "independent MCs" `Quick test_independent_mcs;
        ] );
      ( "link-events",
        [
          Alcotest.test_case "failure repairs topology" `Quick
            test_link_failure_repairs_topology;
          Alcotest.test_case "off-tree failure ignored" `Quick
            test_link_failure_off_tree_is_ignored_by_mc;
          Alcotest.test_case "recovery keeps topology" `Quick
            test_link_recovery_floods_but_keeps_topology;
          Alcotest.test_case "figure-2 LSA accounting" `Quick
            test_figure2_lsa_accounting;
          Alcotest.test_case "partition: per-side agreement" `Quick
            test_partition_converges_per_side;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "sparse events cost 1 each" `Quick
            test_sparse_events_cost_one_computation_each;
          Alcotest.test_case "bursty overhead bounded" `Quick
            test_bursty_overhead_is_bounded;
          Alcotest.test_case "counter reset" `Quick test_counters_reset;
          Alcotest.test_case "convergence measured" `Quick
            test_convergence_rounds_measured;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "quiescence reporting" `Quick
            test_quiescent_reports_pending_work;
          Alcotest.test_case "tracing" `Quick test_trace_records_protocol_activity;
          Alcotest.test_case "wan regime" `Quick test_wan_regime_converges;
        ] );
      ( "observers",
        [
          Alcotest.test_case "observer gets the changed switch" `Quick
            test_observer_receives_changed_switch;
          Alcotest.test_case "shared engine, one clock" `Quick
            test_shared_engine_one_clock;
          Alcotest.test_case "engine excludes trace and metrics" `Quick
            test_engine_excludes_sinks;
          Alcotest.test_case "engine excludes a live series" `Quick
            test_engine_excludes_live_series;
        ] );
    ]
