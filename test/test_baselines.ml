(* Tests for the comparison protocols (lib/baselines): brute-force LSR
   multicast, MOSPF, CBT, and core selection. *)

let check = Alcotest.check

let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

let grid33 () = Net.Topo_gen.grid ~rows:3 ~cols:3

(* ------------------------------------------------------------------ *)
(* Brute force *)

let test_brute_computations_scale_with_n () =
  let graph = grid33 () in
  let bf = Baselines.Brute_force.create ~graph ~config:Dgmc.Config.atm_lan () in
  Oracle.Brute_force.join bf ~switch:0 mc Dgmc.Member.Both;
  Baselines.Brute_force.run bf;
  let t = Baselines.Brute_force.totals bf in
  check Alcotest.int "events" 1 t.events;
  (* Every one of the 9 switches recomputes per membership LSA. *)
  check Alcotest.int "n computations per event" 9 t.computations;
  check Alcotest.int "one flooding" 1 t.floodings

let test_brute_converges () =
  let graph = grid33 () in
  let bf = Baselines.Brute_force.create ~graph ~config:Dgmc.Config.atm_lan () in
  List.iteri
    (fun i s ->
      Baselines.Brute_force.schedule_join bf
        ~at:(float_of_int i *. 1e-5)
        ~switch:s mc Dgmc.Member.Both)
    [ 0; 4; 8 ];
  Baselines.Brute_force.run bf;
  check Alcotest.bool "agreement" true (Baselines.Brute_force.converged bf mc);
  match Baselines.Brute_force.topology bf ~switch:0 mc with
  | Some tree ->
    check Alcotest.bool "valid topology" true
      (Mctree.Tree.is_valid_mc_topology graph tree);
    check Alcotest.(list int) "terminals" [ 0; 4; 8 ]
      (Mctree.Tree.terminals tree)
  | None -> Alcotest.fail "no topology at switch 0"

let test_brute_leave () =
  let graph = grid33 () in
  let bf = Baselines.Brute_force.create ~graph ~config:Dgmc.Config.atm_lan () in
  Oracle.Brute_force.join bf ~switch:0 mc Dgmc.Member.Both;
  Baselines.Brute_force.run bf;
  Oracle.Brute_force.join bf ~switch:8 mc Dgmc.Member.Both;
  Baselines.Brute_force.run bf;
  Oracle.Brute_force.leave bf ~switch:8 mc;
  Baselines.Brute_force.run bf;
  check Alcotest.bool "agreement" true (Baselines.Brute_force.converged bf mc);
  let tree = Option.get (Baselines.Brute_force.topology bf ~switch:4 mc) in
  check Alcotest.(list int) "member left" [ 0 ]
    (Mctree.Tree.terminals tree)

(* The simulator computes each (graph version, MC, member set) tree once
   and shares it; these tests pin that every switch still ends up with
   exactly the tree it would have computed alone, on the graph as it is
   when the computation fires. *)

let check_exact ~what graph bf mc members =
  for switch = 0 to Net.Graph.n_nodes graph - 1 do
    let own =
      Dgmc.Compute.topology Dgmc.Config.atm_lan mc.Dgmc.Mc_id.kind graph members
        ~self:switch ~current:None
    in
    match Baselines.Brute_force.topology bf ~switch mc with
    | Some tree when Mctree.Tree.equal tree own -> ()
    | Some _ -> Alcotest.failf "%s: switch %d holds a tree it would not compute" what switch
    | None -> Alcotest.failf "%s: switch %d has no topology" what switch
  done

(* Takes down the first link of [tree] whose loss leaves [graph]
   connected. *)
let cut_tree_link graph tree =
  match
    List.find_opt
      (fun (u, v) ->
        Net.Graph.set_link graph u v ~up:false;
        let connected = Net.Bfs.is_connected graph in
        Net.Graph.set_link graph u v ~up:true;
        connected)
      (Mctree.Tree.edges tree)
  with
  | Some (u, v) -> Net.Graph.set_link graph u v ~up:false
  | None -> Alcotest.fail "every tree link is a bridge"

(* Cuts every link of the first candidate whose loss splits [graph] into
   exactly that switch and one other component, and returns it. *)
let isolate graph candidates =
  let set x links ~up = List.iter (fun v -> Net.Graph.set_link graph x v ~up) links in
  let cut_alone x =
    let links = List.map fst (Net.Graph.neighbors graph x) in
    set x links ~up:false;
    let alone = List.length (Net.Bfs.components graph) = 2 in
    if not alone then set x links ~up:true;
    alone
  in
  match List.find_opt cut_alone candidates with
  | Some x -> x
  | None -> Alcotest.fail "no member can be cut off alone"

let test_brute_memo_exact_waxman () =
  let config = Dgmc.Config.atm_lan in
  List.iter
    (fun (seed, n, kind) ->
      let what = Printf.sprintf "seed %d, n=%d, %s" seed n (Dgmc.Mc_id.kind_to_string kind) in
      let graph = Experiments.Harness.graph_for ~seed ~n in
      let mc = Dgmc.Mc_id.make kind 1 in
      let bf = Baselines.Brute_force.create ~graph ~config () in
      let window = Lsr.Flooding.flood_diameter ~graph ~t_hop:config.t_hop in
      let joins =
        Workload.Bursty.joins (Sim.Rng.create seed) ~n ~mc ~members:10 ~window ()
        |> List.filter_map (fun (e : Workload.Events.t) ->
               match e.action with
               | Workload.Events.Join { switch; role; _ } -> Some (e.time, switch, role)
               | _ -> None)
      in
      List.iter
        (fun (at, switch, role) -> Baselines.Brute_force.schedule_join bf ~at ~switch mc role)
        joins;
      let members = Dgmc.Member.of_list (List.map (fun (_, s, r) -> (s, r)) joins) in
      let rejoin switch =
        Oracle.Brute_force.join bf ~switch mc
          (Option.get (Dgmc.Member.role members switch))
      in
      Baselines.Brute_force.run bf;
      check_exact ~what:(what ^ ", burst") graph bf mc members;
      (* A tree link fails and a member re-joins with its old role: the
         member set repeats, on a new graph version. *)
      let ids = Dgmc.Member.ids members in
      cut_tree_link graph (Option.get (Baselines.Brute_force.topology bf ~switch:0 mc));
      rejoin (List.hd ids);
      Baselines.Brute_force.run bf;
      check_exact ~what:(what ^ ", after a link failure") graph bf mc members;
      (* A member is cut off: each side of the partition keeps its own
         tree. *)
      let x = isolate graph ids in
      rejoin x;
      rejoin (List.find (fun y -> y <> x) ids);
      Baselines.Brute_force.run bf;
      check_exact ~what:(what ^ ", partitioned") graph bf mc members)
    [
      (1, 20, Dgmc.Mc_id.Symmetric);
      (2, 40, Dgmc.Mc_id.Symmetric);
      (3, 60, Dgmc.Mc_id.Symmetric);
      (4, 30, Dgmc.Mc_id.Asymmetric);
      (5, 50, Dgmc.Mc_id.Receiver_only);
    ]

let test_brute_memo_follows_set_link () =
  let graph = grid33 () in
  let bf = Baselines.Brute_force.create ~graph ~config:Dgmc.Config.atm_lan () in
  Oracle.Brute_force.join bf ~switch:0 mc Dgmc.Member.Both;
  Oracle.Brute_force.join bf ~switch:8 mc Dgmc.Member.Both;
  Baselines.Brute_force.run bf;
  let before = Option.get (Baselines.Brute_force.topology bf ~switch:4 mc) in
  let u, v = List.hd (Mctree.Tree.edges before) in
  Net.Graph.set_link graph u v ~up:false;
  (* Same member set as before the failure. *)
  Oracle.Brute_force.join bf ~switch:0 mc Dgmc.Member.Both;
  Baselines.Brute_force.run bf;
  let members = Dgmc.Member.of_list [ (0, Both); (8, Both) ] in
  check_exact ~what:"grid after set_link" graph bf mc members;
  check Alcotest.bool "tree avoids the failed link" true
    (Mctree.Tree.is_valid_mc_topology graph
       (Option.get (Baselines.Brute_force.topology bf ~switch:4 mc)))

let test_brute_memo_partition () =
  let graph = grid33 () in
  let bf = Baselines.Brute_force.create ~graph ~config:Dgmc.Config.atm_lan () in
  List.iter (fun s -> Oracle.Brute_force.join bf ~switch:s mc Dgmc.Member.Both) [ 0; 2; 6; 8 ];
  Baselines.Brute_force.run bf;
  (* Split off the left column {0, 3, 6}, then one member per side
     re-joins so every switch recomputes the same member set. *)
  List.iter (fun (u, v) -> Net.Graph.set_link graph u v ~up:false) [ (0, 1); (3, 4); (6, 7) ];
  Oracle.Brute_force.join bf ~switch:0 mc Dgmc.Member.Both;
  Oracle.Brute_force.join bf ~switch:8 mc Dgmc.Member.Both;
  Baselines.Brute_force.run bf;
  let members = Dgmc.Member.of_list (List.map (fun s -> (s, Dgmc.Member.Both)) [ 0; 2; 6; 8 ]) in
  check_exact ~what:"partitioned grid" graph bf mc members;
  let terminals switch =
    Mctree.Tree.terminals (Option.get (Baselines.Brute_force.topology bf ~switch mc))
  in
  check Alcotest.(list int) "left side" [ 0; 6 ] (terminals 3);
  check Alcotest.(list int) "right side" [ 2; 8 ] (terminals 4)

(* ------------------------------------------------------------------ *)
(* MOSPF *)

let test_mospf_membership_propagates () =
  let graph = grid33 () in
  let m = Baselines.Mospf.create ~graph ~config:Dgmc.Config.atm_lan () in
  Oracle.Mospf.join m ~switch:2 ~group:1;
  Oracle.Mospf.join m ~switch:7 ~group:1;
  Baselines.Mospf.run m;
  for sw = 0 to 8 do
    check Alcotest.(list int) "member list at every router" [ 2; 7 ]
      (Baselines.Mospf.members m ~switch:sw ~group:1)
  done;
  check Alcotest.int "no computation without data" 0
    (Baselines.Mospf.totals m).computations

let test_mospf_data_driven_computation () =
  let graph = grid33 () in
  let m = Baselines.Mospf.create ~graph ~config:Dgmc.Config.atm_lan () in
  Oracle.Mospf.join m ~switch:0 ~group:1;
  Oracle.Mospf.join m ~switch:8 ~group:1;
  Baselines.Mospf.run m;
  Baselines.Mospf.send_packet m ~src:0 ~group:1;
  Baselines.Mospf.run m;
  let t = Baselines.Mospf.totals m in
  (* Every router on the (0, 1) source tree computed once.  The SPT from
     0 to 8 in the grid is a path of 4 edges and 5 nodes. *)
  let tree = Mctree.Spt.source_rooted graph ~root:0 ~receivers:[ 8 ] in
  check Alcotest.int "computations = on-tree routers"
    (List.length (Mctree.Tree.edges tree) + 1)
    t.computations;
  check Alcotest.bool "packets forwarded" true (t.packets_forwarded > 0)

let test_mospf_cache_hit_no_recompute () =
  let graph = grid33 () in
  let m = Baselines.Mospf.create ~graph ~config:Dgmc.Config.atm_lan () in
  Oracle.Mospf.join m ~switch:0 ~group:1;
  Oracle.Mospf.join m ~switch:8 ~group:1;
  Baselines.Mospf.run m;
  Baselines.Mospf.send_packet m ~src:0 ~group:1;
  Baselines.Mospf.run m;
  let after_first = (Baselines.Mospf.totals m).computations in
  Baselines.Mospf.send_packet m ~src:0 ~group:1;
  Baselines.Mospf.run m;
  check Alcotest.int "second packet rides the cache" after_first
    (Baselines.Mospf.totals m).computations

let test_mospf_membership_change_invalidates () =
  let graph = grid33 () in
  let m = Baselines.Mospf.create ~graph ~config:Dgmc.Config.atm_lan () in
  Oracle.Mospf.join m ~switch:0 ~group:1;
  Oracle.Mospf.join m ~switch:8 ~group:1;
  Baselines.Mospf.run m;
  Baselines.Mospf.send_packet m ~src:0 ~group:1;
  Baselines.Mospf.run m;
  let after_first = (Baselines.Mospf.totals m).computations in
  Oracle.Mospf.join m ~switch:2 ~group:1;
  Baselines.Mospf.run m;
  Baselines.Mospf.send_packet m ~src:0 ~group:1;
  Baselines.Mospf.run m;
  check Alcotest.bool "caches flushed => recomputation" true
    ((Baselines.Mospf.totals m).computations > after_first)

let test_mospf_leave () =
  let graph = grid33 () in
  let m = Baselines.Mospf.create ~graph ~config:Dgmc.Config.atm_lan () in
  Oracle.Mospf.join m ~switch:2 ~group:1;
  Oracle.Mospf.join m ~switch:7 ~group:1;
  Baselines.Mospf.run m;
  Oracle.Mospf.leave m ~switch:2 ~group:1;
  Baselines.Mospf.run m;
  for sw = 0 to 8 do
    check Alcotest.(list int) "member list at every router" [ 7 ]
      (Baselines.Mospf.members m ~switch:sw ~group:1)
  done;
  (* With 2 gone, 7's tree is 7 alone: one computation, nothing sent.
     The tree that still reached 2 would have edges to forward on. *)
  Baselines.Mospf.send_packet m ~src:7 ~group:1;
  Baselines.Mospf.run m;
  let t = Baselines.Mospf.totals m in
  check Alcotest.int "one computation" 1 t.computations;
  check Alcotest.int "no packet forwarded" 0 t.packets_forwarded;
  check Alcotest.bool "a tree with 2 has edges" true
    (Mctree.Tree.has_edges (Mctree.Spt.source_rooted graph ~root:7 ~receivers:[ 2 ]))

(* The simulator computes each (graph version, source, receivers) tree
   once and shares it.  One datagram per source makes every router on
   the source's tree compute once and forward once per tree edge, so
   the totals follow from trees computed here, without the simulator. *)
let test_mospf_memo_exact_waxman () =
  let config = Dgmc.Config.atm_lan and group = 1 in
  List.iter
    (fun (seed, n) ->
      let what = Printf.sprintf "seed %d, n=%d" seed n in
      let graph = Experiments.Harness.graph_for ~seed ~n in
      let m = Baselines.Mospf.create ~graph ~config () in
      let window = Lsr.Flooding.flood_diameter ~graph ~t_hop:config.t_hop in
      let members =
        Workload.Bursty.joins (Sim.Rng.create seed) ~n ~mc ~members:10 ~window ()
        |> List.filter_map (fun (e : Workload.Events.t) ->
               match e.action with
               | Workload.Events.Join { switch; _ } ->
                 Baselines.Mospf.schedule_join m ~at:e.time ~switch ~group;
                 Some switch
               | _ -> None)
        |> List.sort_uniq Int.compare
      in
      Baselines.Mospf.run m;
      let trees () =
        List.map
          (fun src ->
            Mctree.Spt.source_rooted graph ~root:src
              ~receivers:(List.filter (fun r -> r <> src) members))
          members
      in
      (* Sends one datagram per source and checks the totals' growth
         against [trees]. *)
      let send_and_check ~what trees =
        let before = Baselines.Mospf.totals m in
        List.iter (fun src -> Baselines.Mospf.send_packet m ~src ~group) members;
        Baselines.Mospf.run m;
        let after = Baselines.Mospf.totals m in
        let edges = List.fold_left (fun acc t -> acc + List.length (Mctree.Tree.edges t)) 0 trees in
        check Alcotest.int (what ^ ": computations")
          (edges + List.length trees)
          (after.computations - before.computations);
        check Alcotest.int (what ^ ": packets forwarded") edges
          (after.packets_forwarded - before.packets_forwarded)
      in
      let burst = trees () in
      send_and_check ~what:(what ^ ", burst") burst;
      (* A tree link fails and a member re-joins: every router flushes
         its caches and the member set repeats, on a new graph version. *)
      cut_tree_link graph (List.hd burst);
      Oracle.Mospf.join m ~switch:(List.hd members) ~group;
      Baselines.Mospf.run m;
      send_and_check ~what:(what ^ ", after a link failure") (trees ()))
    [ (1, 20); (2, 40); (3, 60); (4, 30); (5, 50) ]

(* ------------------------------------------------------------------ *)
(* CBT *)

let test_cbt_join_grafts_toward_core () =
  let graph = Net.Topo_gen.line 5 in
  let cbt = Baselines.Cbt.create ~graph ~core:0 in
  Baselines.Cbt.join cbt 4;
  let tree = Baselines.Cbt.tree cbt in
  check Alcotest.(list (pair int int)) "whole line grafted"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ]
    (Mctree.Tree.edges tree);
  (* 4 hops out, 4 acks back. *)
  check Alcotest.int "control messages" 8 (Baselines.Cbt.control_messages cbt)

let test_cbt_join_stops_at_tree () =
  let graph = Net.Topo_gen.line 5 in
  let cbt = Baselines.Cbt.create ~graph ~core:0 in
  Baselines.Cbt.join cbt 4;
  let before = Baselines.Cbt.control_messages cbt in
  (* 2 is already an on-tree switch: joining costs nothing on the wire. *)
  Baselines.Cbt.join cbt 2;
  check Alcotest.int "no new messages" before (Baselines.Cbt.control_messages cbt);
  check Alcotest.(list int) "member recorded" [ 2; 4 ]
    (List.map
       (fun (d : Mctree.Delivery.delivery) -> d.receiver)
       (Baselines.Cbt.deliver cbt ~src:0).deliveries)

let test_cbt_join_idempotent () =
  let graph = Net.Topo_gen.line 3 in
  let cbt = Baselines.Cbt.create ~graph ~core:0 in
  Baselines.Cbt.join cbt 2;
  let msgs = Baselines.Cbt.control_messages cbt in
  Baselines.Cbt.join cbt 2;
  check Alcotest.int "re-join is a no-op" msgs (Baselines.Cbt.control_messages cbt)

let test_cbt_deliver_reaches_members () =
  let graph = grid33 () in
  let cbt = Baselines.Cbt.create ~graph ~core:4 in
  List.iter (Baselines.Cbt.join cbt) [ 0; 8 ];
  let report = Baselines.Cbt.deliver cbt ~src:2 in
  check Alcotest.(list int) "both members" [ 0; 8 ]
    (List.map (fun (d : Mctree.Delivery.delivery) -> d.receiver) report.deliveries);
  (* The contact must sit on the unicast route from 2 toward core 4. *)
  match report.contact with
  | Some c ->
    let route = Option.get (Net.Dijkstra.path graph ~src:2 ~dst:4) in
    check Alcotest.bool "contact on core-ward route" true (List.mem c route)
  | None -> Alcotest.fail "two-stage delivery must name a contact"

let test_cbt_core_unreachable () =
  let graph = Oracle.Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let cbt = Baselines.Cbt.create ~graph ~core:0 in
  Alcotest.check_raises "join across partition" (Failure "Cbt: core unreachable")
    (fun () -> Baselines.Cbt.join cbt 3)

(* ------------------------------------------------------------------ *)
(* Core selection *)

let test_core_first_member () =
  check Alcotest.int "smallest id" 2 (Baselines.Core_select.first_member [ 7; 2; 9 ])

let test_core_center_median_line () =
  let graph = Net.Topo_gen.line 7 in
  (* Members at the two ends: the 1-center is the midpoint.  (The median
     objective is constant along the path between two members, so it is
     only discriminating with three or more members — next test.) *)
  check Alcotest.int "center" 3
    (Baselines.Core_select.center graph ~members:[ 0; 6 ]);
  (* Members 0, 2, 6: distance sums are 8, 7, 6, 7, 8, 9, 10 => node 2. *)
  check Alcotest.int "median" 2
    (Baselines.Core_select.median graph ~members:[ 0; 2; 6 ])

let test_core_median_weighted () =
  (* Median counts total distance: with three members clustered at one
     end, it moves toward the cluster; center stays midway. *)
  let graph = Net.Topo_gen.line 7 in
  let members = [ 0; 1; 2; 6 ] in
  let median = Baselines.Core_select.median graph ~members in
  let center = Baselines.Core_select.center graph ~members in
  check Alcotest.bool "median near cluster" true (median <= 2);
  check Alcotest.int "center midway" 3 center

let test_core_random_in_range () =
  let graph = grid33 () in
  let rng = Sim.Rng.create 3 in
  for _ = 1 to 20 do
    let c = Baselines.Core_select.random rng graph in
    if c < 0 || c > 8 then Alcotest.failf "core out of range: %d" c
  done

let () =
  Alcotest.run "baselines"
    [
      ( "brute-force",
        [
          Alcotest.test_case "n computations per event" `Quick
            test_brute_computations_scale_with_n;
          Alcotest.test_case "converges" `Quick test_brute_converges;
          Alcotest.test_case "leave" `Quick test_brute_leave;
          Alcotest.test_case "shared trees exact on Waxman graphs" `Quick
            test_brute_memo_exact_waxman;
          Alcotest.test_case "shared trees follow set_link" `Quick
            test_brute_memo_follows_set_link;
          Alcotest.test_case "shared trees respect partitions" `Quick
            test_brute_memo_partition;
        ] );
      ( "mospf",
        [
          Alcotest.test_case "membership propagates" `Quick
            test_mospf_membership_propagates;
          Alcotest.test_case "data-driven computation" `Quick
            test_mospf_data_driven_computation;
          Alcotest.test_case "cache hits" `Quick test_mospf_cache_hit_no_recompute;
          Alcotest.test_case "invalidation on change" `Quick
            test_mospf_membership_change_invalidates;
          Alcotest.test_case "leave" `Quick test_mospf_leave;
          Alcotest.test_case "shared trees exact on Waxman graphs" `Quick
            test_mospf_memo_exact_waxman;
        ] );
      ( "cbt",
        [
          Alcotest.test_case "join grafts toward core" `Quick
            test_cbt_join_grafts_toward_core;
          Alcotest.test_case "join stops at tree" `Quick test_cbt_join_stops_at_tree;
          Alcotest.test_case "join idempotent" `Quick test_cbt_join_idempotent;
          Alcotest.test_case "delivery" `Quick test_cbt_deliver_reaches_members;
          Alcotest.test_case "core unreachable" `Quick test_cbt_core_unreachable;
        ] );
      ( "core-select",
        [
          Alcotest.test_case "first member" `Quick test_core_first_member;
          Alcotest.test_case "center and median on a line" `Quick
            test_core_center_median_line;
          Alcotest.test_case "median weighting" `Quick test_core_median_weighted;
          Alcotest.test_case "random in range" `Quick test_core_random_in_range;
        ] );
    ]
