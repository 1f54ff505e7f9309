(* Tests for the multicast-tree substrate (lib/mctree). *)

let check = Alcotest.check

let tree_t = Alcotest.testable Mctree.Tree.pp Mctree.Tree.equal

let house () =
  Oracle.Graph.of_edges 5
    [ (0, 1, 1.0); (1, 2, 1.0); (0, 3, 4.0); (2, 4, 1.0); (3, 4, 1.0) ]

(* A 3x3 grid with unit weights; node ids row-major. *)
let grid () = Net.Topo_gen.grid ~rows:3 ~cols:3 ()

let random_graph seed n = Net.Topo_gen.waxman (Sim.Rng.create seed) ~n ~target_degree:3.5 ()

(* ------------------------------------------------------------------ *)
(* Tree *)

let n_edges t = List.length (Mctree.Tree.edges t)

let test_tree_empty () =
  let t = Mctree.Tree.empty in
  check Alcotest.int "no edges" 0 (n_edges t);
  check Alcotest.bool "is tree" true (Mctree.Tree.is_tree t);
  check Alcotest.bool "spans trivially" true (Mctree.Tree.spans_terminals t)

let test_tree_edges () =
  let t = Mctree.Tree.of_edges ~terminals:[ 0; 2 ] [ (0, 1); (2, 1) ] in
  check Alcotest.(list (pair int int)) "normalized sorted edges"
    [ (0, 1); (1, 2) ] (Mctree.Tree.edges t);
  check Alcotest.bool "mem either direction" true (Mctree.Tree.mem_edge t 1 0);
  check Alcotest.bool "node membership" true (Mctree.Tree.mem_node t 1);
  check Alcotest.bool "terminal flag" true (Mctree.Tree.is_terminal t 0);
  check Alcotest.bool "non-terminal" false (Mctree.Tree.is_terminal t 1)

let test_tree_add_remove () =
  let t = Mctree.Tree.add_path Mctree.Tree.empty [ 3; 7 ] in
  let t = Mctree.Tree.add_path t [ 7; 3 ] in
  check Alcotest.int "idempotent add" 1 (n_edges t);
  let t = Mctree.Tree.filter_edges (fun u v -> not (u = 3 && v = 7)) t in
  check Alcotest.int "removed" 0 (n_edges t);
  Alcotest.check_raises "self loop" (Invalid_argument "Tree: self-loop")
    (fun () -> ignore (Mctree.Tree.add_path Mctree.Tree.empty [ 1; 1 ]))

let test_tree_add_path () =
  let t = Mctree.Tree.add_path Mctree.Tree.empty [ 0; 1; 2; 3 ] in
  check Alcotest.int "3 edges" 3 (n_edges t);
  check Alcotest.bool "is tree" true (Mctree.Tree.is_tree t)

let test_tree_is_tree () =
  let path = Mctree.Tree.add_path Mctree.Tree.empty [ 0; 1; 2 ] in
  check Alcotest.bool "path is tree" true (Mctree.Tree.is_tree path);
  let cycle = Mctree.Tree.add_path path [ 2; 0 ] in
  check Alcotest.bool "cycle is not" false (Mctree.Tree.is_tree cycle);
  let forest =
    Mctree.Tree.add_path (Mctree.Tree.add_path Mctree.Tree.empty [ 0; 1 ]) [ 2; 3 ]
  in
  check Alcotest.bool "forest is not a tree" false (Mctree.Tree.is_tree forest)

let test_tree_spans () =
  let t = Mctree.Tree.of_edges ~terminals:[ 0; 2 ] [ (0, 1); (1, 2) ] in
  check Alcotest.bool "spans" true (Mctree.Tree.spans_terminals t);
  let t' = Mctree.Tree.add_terminal t 5 in
  check Alcotest.bool "disconnected terminal" false (Mctree.Tree.spans_terminals t');
  let single = Mctree.Tree.of_terminals [ 9 ] in
  check Alcotest.bool "single member spans" true (Mctree.Tree.spans_terminals single)

let test_tree_prune () =
  (* 0-1-2 with a dangling branch 1-5-6; terminals 0, 2. *)
  let t =
    Mctree.Tree.of_edges ~terminals:[ 0; 2 ] [ (0, 1); (1, 2); (1, 5); (5, 6) ]
  in
  let pruned = Mctree.Tree.prune t in
  check Alcotest.(list (pair int int)) "branch removed" [ (0, 1); (1, 2) ]
    (Mctree.Tree.edges pruned)

let test_tree_prune_keeps_terminal_leaves () =
  let t = Mctree.Tree.of_edges ~terminals:[ 0; 2; 6 ] [ (0, 1); (1, 2); (1, 6) ] in
  check tree_t "terminal leaf kept" t (Mctree.Tree.prune t)

let test_tree_cost () =
  let g = house () in
  let t = Mctree.Tree.of_edges ~terminals:[ 0; 4 ] [ (0, 1); (1, 2); (2, 4) ] in
  check Alcotest.(float 0.0) "cost" 3.0 (Mctree.Tree.cost g t)

let test_tree_equality_and_compare () =
  let a = Mctree.Tree.of_edges ~terminals:[ 1 ] [ (1, 2) ] in
  let b = Mctree.Tree.of_edges ~terminals:[ 1 ] [ (2, 1) ] in
  check Alcotest.bool "normalized equal" true (Mctree.Tree.equal a b);
  check Alcotest.int "compare zero" 0 (Mctree.Tree.compare a b);
  let c = Mctree.Tree.add_terminal a 2 in
  check Alcotest.bool "terminals matter" false (Mctree.Tree.equal a c)

let test_tree_is_embedded () =
  let g = house () in
  let t = Mctree.Tree.of_edges ~terminals:[ 0; 2 ] [ (0, 1); (1, 2) ] in
  check Alcotest.bool "embedded" true (Mctree.Tree.is_embedded g t);
  Net.Graph.set_link g 0 1 ~up:false;
  check Alcotest.bool "down link breaks embedding" false (Mctree.Tree.is_embedded g t);
  let t' = Mctree.Tree.of_edges ~terminals:[ 0; 4 ] [ (0, 4) ] in
  check Alcotest.bool "non-edge" false (Mctree.Tree.is_embedded g t')

(* ------------------------------------------------------------------ *)
(* Steiner heuristics *)

let assert_valid_topology g terminals tree =
  check Alcotest.bool "is valid MC topology" true
    (Mctree.Tree.is_valid_mc_topology g tree);
  check Alcotest.(list int) "terminal set preserved"
    (List.sort compare terminals)
    (Mctree.Tree.terminals tree)

let test_steiner_two_terminals_is_shortest_path () =
  let g = house () in
  List.iter
    (fun algo ->
      let t = algo g [ 0; 4 ] in
      assert_valid_topology g [ 0; 4 ] t;
      check Alcotest.(float 1e-9) "cost equals shortest path"
        (Oracle.Dijkstra.distance g 0 4)
        (Mctree.Tree.cost g t))
    [ Mctree.Steiner.kmb; Mctree.Steiner.sph ]

let test_steiner_single_terminal () =
  let g = house () in
  let t = Mctree.Steiner.kmb g [ 3 ] in
  check Alcotest.int "no edges" 0 (n_edges t);
  check Alcotest.bool "valid" true (Mctree.Tree.is_valid_mc_topology g t)

let test_steiner_grid_known () =
  (* Corners of a 3x3 unit grid need at least 6 edges; both heuristics
     should find a 6-edge tree (e.g. through the middle row/column). *)
  let g = grid () in
  let corners = [ 0; 2; 6; 8 ] in
  List.iter
    (fun algo ->
      let t = algo g corners in
      assert_valid_topology g corners t;
      check Alcotest.(float 0.0) "optimal corner tree" 6.0 (Mctree.Tree.cost g t))
    [ Mctree.Steiner.kmb; Mctree.Steiner.sph ]

let test_steiner_validation () =
  let g = house () in
  Alcotest.check_raises "empty" (Failure "Steiner: empty terminal set") (fun () ->
      ignore (Mctree.Steiner.kmb g []));
  Alcotest.check_raises "duplicates" (Failure "Steiner: duplicate terminals")
    (fun () -> ignore (Mctree.Steiner.kmb g [ 1; 1 ]));
  Alcotest.check_raises "range" (Failure "Steiner: terminal 9 out of range")
    (fun () -> ignore (Mctree.Steiner.kmb g [ 9 ]))

let test_steiner_unreachable () =
  let g = Oracle.Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.check_raises "partitioned terminals"
    (Failure "Steiner: terminals not mutually reachable") (fun () ->
      ignore (Mctree.Steiner.kmb g [ 0; 2 ]))

let test_steiner_random_validity_and_quality () =
  for seed = 1 to 10 do
    let g = random_graph seed 40 in
    let rng = Sim.Rng.create (seed * 100) in
    let terminals = Sim.Rng.sample rng 8 (List.init 40 (fun i -> i)) in
    let lb = Mctree.Steiner.lower_bound g terminals in
    List.iter
      (fun (name, algo) ->
        let t = algo g terminals in
        assert_valid_topology g terminals t;
        let cost = Mctree.Tree.cost g t in
        (* KMB/SPH guarantee a factor-2 approximation. *)
        if cost > (2.0 *. lb) +. 1e-6 then
          Alcotest.failf "%s cost %.3f exceeds 2x lower bound %.3f (seed %d)"
            name cost lb seed)
      [ ("kmb", Mctree.Steiner.kmb); ("sph", Mctree.Steiner.sph) ]
  done

(* ------------------------------------------------------------------ *)
(* Source-rooted trees *)

let test_spt_distances () =
  (* The defining property: the tree path from the root to each receiver
     costs exactly the shortest-path distance. *)
  let g = random_graph 3 30 in
  let receivers = [ 4; 9; 17; 22; 28 ] in
  let t = Mctree.Spt.source_rooted g ~root:0 ~receivers in
  assert_valid_topology g (0 :: receivers) t;
  List.iter
    (fun (receiver, delay) ->
      check Alcotest.(float 1e-9) "tree delay = shortest path"
        (Oracle.Dijkstra.distance g 0 receiver)
        delay)
    (Oracle.Delivery.delays g t ~root:0)

let test_spt_root_is_receiver () =
  let g = house () in
  let t = Mctree.Spt.source_rooted g ~root:0 ~receivers:[ 0; 2 ] in
  check Alcotest.bool "valid" true (Mctree.Tree.is_valid_mc_topology g t)

let test_spt_depth () =
  let g = Net.Topo_gen.line 5 in
  let t = Mctree.Spt.source_rooted g ~root:0 ~receivers:[ 4 ] in
  check Alcotest.int "depth" 4
    (List.fold_left
       (fun d (x : Mctree.Delivery.delivery) -> max d x.hops)
       0 (Mctree.Delivery.multicast g t ~src:0).deliveries)

let test_spt_unreachable () =
  let g = Oracle.Graph.of_edges 3 [ (0, 1, 1.0) ] in
  Alcotest.check_raises "unreachable receiver"
    (Failure "Spt: receiver 2 unreachable") (fun () ->
      ignore (Mctree.Spt.source_rooted g ~root:0 ~receivers:[ 2 ]))

(* ------------------------------------------------------------------ *)
(* Incremental maintenance *)

let test_incremental_join () =
  let g = grid () in
  let t = Mctree.Steiner.sph g [ 0; 2 ] in
  let t' = Mctree.Incremental.join g t 8 in
  check Alcotest.bool "valid after join" true (Mctree.Tree.is_valid_mc_topology g t');
  check Alcotest.bool "new terminal present" true (Mctree.Tree.is_terminal t' 8)

let test_incremental_join_first_member () =
  let g = grid () in
  let t = Mctree.Incremental.join g Mctree.Tree.empty 4 in
  check Alcotest.int "no edges yet" 0 (n_edges t);
  check Alcotest.bool "terminal recorded" true (Mctree.Tree.is_terminal t 4)

let test_incremental_join_existing_node () =
  let g = Net.Topo_gen.line 4 in
  (* Tree spans 0..3; node 1 is an intermediate switch. *)
  let t = Mctree.Steiner.sph g [ 0; 3 ] in
  let t' = Mctree.Incremental.join g t 1 in
  check Alcotest.int "no new edges needed" (n_edges t)
    (n_edges t');
  check Alcotest.bool "terminal added" true (Mctree.Tree.is_terminal t' 1)

let test_incremental_leave () =
  let g = Net.Topo_gen.line 5 in
  let t = Mctree.Steiner.sph g [ 0; 2; 4 ] in
  let t' = Mctree.Incremental.leave g t 4 in
  check Alcotest.bool "valid after leave" true (Mctree.Tree.is_valid_mc_topology g t');
  check Alcotest.bool "branch pruned" false (Mctree.Tree.mem_node t' 4);
  check Alcotest.int "line tree shrinks" 2 (n_edges t')

let test_incremental_leave_interior () =
  (* Removing an interior member keeps its switch as a relay. *)
  let g = Net.Topo_gen.line 5 in
  let t = Mctree.Steiner.sph g [ 0; 2; 4 ] in
  let t' = Mctree.Incremental.leave g t 2 in
  check Alcotest.bool "still spans 0 and 4" true (Mctree.Tree.spans_terminals t');
  check Alcotest.bool "2 still relays" true (Mctree.Tree.mem_node t' 2)

let test_incremental_repair () =
  let g = grid () in
  let t = Mctree.Steiner.sph g [ 0; 8 ] in
  let u, v = List.hd (Mctree.Tree.edges t) in
  Net.Graph.set_link g u v ~up:false;
  (match Mctree.Incremental.repair g t with
  | Some t' ->
    check Alcotest.bool "valid after repair" true
      (Mctree.Tree.is_valid_mc_topology g t')
  | None -> Alcotest.fail "grid stays connected; repair must succeed");
  Net.Graph.set_link g u v ~up:true

let test_incremental_repair_partition () =
  let g = Net.Topo_gen.line 4 in
  let t = Mctree.Steiner.sph g [ 0; 3 ] in
  Net.Graph.set_link g 1 2 ~up:false;
  check Alcotest.bool "partition detected" true (Mctree.Incremental.repair g t = None)

let test_incremental_repair_noop () =
  let g = grid () in
  let t = Mctree.Steiner.sph g [ 0; 8 ] in
  match Mctree.Incremental.repair g t with
  | Some t' -> check tree_t "healthy tree unchanged" t t'
  | None -> Alcotest.fail "healthy tree must repair to itself"

let test_incremental_drift () =
  let g = grid () in
  let good = Mctree.Steiner.sph g [ 0; 2 ] in
  let recompute ~threshold t = Mctree.Incremental.recompute ~threshold g t in
  check Alcotest.(option tree_t) "fresh tree has drift ~1" None
    (recompute ~threshold:(1.0 +. 1e-9) good);
  (* A deliberately bad tree for {0, 2}: the long way around. *)
  let bad =
    Mctree.Tree.of_edges ~terminals:[ 0; 2 ]
      [ (0, 3); (3, 6); (6, 7); (7, 8); (8, 5); (5, 2) ]
  in
  check Alcotest.(option tree_t) "detour detected, fresh tree handed back"
    (Some good) (recompute ~threshold:2.0 bad);
  let threshold = Dgmc.Config.atm_lan.drift_threshold in
  check Alcotest.(option tree_t) "needs recompute" (Some good)
    (recompute ~threshold bad);
  check Alcotest.(option tree_t) "good tree does not" None
    (recompute ~threshold good);
  let single = Mctree.Tree.of_terminals [ 4 ] in
  check Alcotest.(option tree_t) "one terminal: drift 1.0" None
    (recompute ~threshold:1.0 single);
  check Alcotest.(option tree_t) "one terminal past a threshold under 1.0"
    (Some single) (recompute ~threshold:0.5 single)

(* ------------------------------------------------------------------ *)
(* Delivery *)

let test_delivery_multicast () =
  let g = Net.Topo_gen.line 4 in
  let t = Mctree.Steiner.sph g [ 0; 3 ] in
  let report = Mctree.Delivery.multicast g t ~src:0 in
  check Alcotest.int "one delivery" 1 (List.length report.deliveries);
  let d = List.hd report.deliveries in
  check Alcotest.int "receiver" 3 d.receiver;
  check Alcotest.(float 0.0) "delay" 3.0 d.delay;
  check Alcotest.int "hops" 3 d.hops;
  check Alcotest.(list (pair int int)) "links" [ (0, 1); (1, 2); (2, 3) ]
    report.links_used

let test_delivery_multicast_excludes_sender () =
  let g = grid () in
  let terminals = [ 0; 2; 8 ] in
  let t = Mctree.Steiner.sph g terminals in
  let report = Mctree.Delivery.multicast g t ~src:2 in
  check Alcotest.(list int) "other members only" [ 0; 8 ]
    (List.map (fun (d : Mctree.Delivery.delivery) -> d.receiver) report.deliveries)

let test_delivery_multicast_requires_tree_node () =
  let g = grid () in
  let t = Mctree.Steiner.sph g [ 0; 2 ] in
  Alcotest.check_raises "off-tree sender"
    (Failure "Delivery.multicast: sender not on tree") (fun () ->
      ignore (Mctree.Delivery.multicast g t ~src:8))

let test_delivery_multicast_cycle () =
  (* Not a tree: the triangle 0-1-2 closes a cycle.  The walk still
     ends, and each terminal receives once. *)
  let g =
    Oracle.Graph.of_edges 4
      [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0); (2, 3, 1.0) ]
  in
  let t =
    Mctree.Tree.of_edges ~terminals:[ 0; 1; 2; 3 ]
      [ (0, 1); (1, 2); (0, 2); (2, 3) ]
  in
  let report = Mctree.Delivery.multicast g t ~src:0 in
  check Alcotest.(list int) "each terminal once" [ 1; 2; 3 ]
    (List.map (fun (d : Mctree.Delivery.delivery) -> d.receiver) report.deliveries)

let test_delivery_two_stage () =
  let g = Net.Topo_gen.line 6 in
  (* Tree spans 0..2; sender at 5 contacts node 2. *)
  let t = Mctree.Steiner.sph g [ 0; 2 ] in
  let report = Mctree.Delivery.two_stage g t ~src:5 in
  check Alcotest.(option int) "contact is nearest tree node" (Some 2) report.contact;
  let to0 =
    List.find (fun (d : Mctree.Delivery.delivery) -> d.receiver = 0)
      report.deliveries
  in
  check Alcotest.(float 0.0) "delay includes unicast stage" 5.0 to0.delay;
  check Alcotest.int "hops include unicast stage" 5 to0.hops;
  (* Contact node 2 is itself a terminal and must be delivered to. *)
  check Alcotest.bool "contact delivered" true
    (List.exists (fun (d : Mctree.Delivery.delivery) -> d.receiver = 2)
       report.deliveries)

let test_delivery_two_stage_on_tree () =
  let g = Net.Topo_gen.line 4 in
  let t = Mctree.Steiner.sph g [ 0; 3 ] in
  let report = Mctree.Delivery.two_stage g t ~src:1 in
  check Alcotest.(option int) "sender itself is the contact" (Some 1) report.contact

let test_delivery_loads () =
  let g = Net.Topo_gen.line 4 in
  let t = Mctree.Steiner.sph g [ 0; 3 ] in
  let loads = Hashtbl.create 8 in
  Mctree.Delivery.accumulate_loads loads (Mctree.Delivery.multicast g t ~src:0);
  Mctree.Delivery.accumulate_loads loads (Mctree.Delivery.multicast g t ~src:0);
  check Alcotest.int "max load" 2 (Mctree.Delivery.max_load loads);
  check Alcotest.int "each link loaded" 3 (Hashtbl.length loads)

let () =
  Alcotest.run "mctree"
    [
      ( "tree",
        [
          Alcotest.test_case "empty" `Quick test_tree_empty;
          Alcotest.test_case "edges" `Quick test_tree_edges;
          Alcotest.test_case "add/remove" `Quick test_tree_add_remove;
          Alcotest.test_case "add_path" `Quick test_tree_add_path;
          Alcotest.test_case "is_tree" `Quick test_tree_is_tree;
          Alcotest.test_case "spans_terminals" `Quick test_tree_spans;
          Alcotest.test_case "prune" `Quick test_tree_prune;
          Alcotest.test_case "prune keeps terminal leaves" `Quick
            test_tree_prune_keeps_terminal_leaves;
          Alcotest.test_case "cost" `Quick test_tree_cost;
          Alcotest.test_case "equality and compare" `Quick
            test_tree_equality_and_compare;
          Alcotest.test_case "is_embedded" `Quick test_tree_is_embedded;
        ] );
      ( "steiner",
        [
          Alcotest.test_case "two terminals = shortest path" `Quick
            test_steiner_two_terminals_is_shortest_path;
          Alcotest.test_case "single terminal" `Quick test_steiner_single_terminal;
          Alcotest.test_case "grid corners" `Quick test_steiner_grid_known;
          Alcotest.test_case "input validation" `Quick test_steiner_validation;
          Alcotest.test_case "unreachable terminals" `Quick test_steiner_unreachable;
          Alcotest.test_case "random validity and quality" `Quick
            test_steiner_random_validity_and_quality;
        ] );
      ( "spt",
        [
          Alcotest.test_case "shortest-path distances" `Quick test_spt_distances;
          Alcotest.test_case "root as receiver" `Quick test_spt_root_is_receiver;
          Alcotest.test_case "depth" `Quick test_spt_depth;
          Alcotest.test_case "unreachable receiver" `Quick test_spt_unreachable;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "join" `Quick test_incremental_join;
          Alcotest.test_case "join first member" `Quick
            test_incremental_join_first_member;
          Alcotest.test_case "join existing node" `Quick
            test_incremental_join_existing_node;
          Alcotest.test_case "leave" `Quick test_incremental_leave;
          Alcotest.test_case "leave interior member" `Quick
            test_incremental_leave_interior;
          Alcotest.test_case "repair" `Quick test_incremental_repair;
          Alcotest.test_case "repair detects partition" `Quick
            test_incremental_repair_partition;
          Alcotest.test_case "repair no-op" `Quick test_incremental_repair_noop;
          Alcotest.test_case "drift" `Quick test_incremental_drift;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "multicast" `Quick test_delivery_multicast;
          Alcotest.test_case "sender excluded" `Quick
            test_delivery_multicast_excludes_sender;
          Alcotest.test_case "cycle ends" `Quick test_delivery_multicast_cycle;
          Alcotest.test_case "off-tree sender rejected" `Quick
            test_delivery_multicast_requires_tree_node;
          Alcotest.test_case "two-stage" `Quick test_delivery_two_stage;
          Alcotest.test_case "two-stage on-tree sender" `Quick
            test_delivery_two_stage_on_tree;
          Alcotest.test_case "load accounting" `Quick test_delivery_loads;
        ] );
    ]
