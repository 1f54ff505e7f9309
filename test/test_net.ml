(* Tests for the network substrate (lib/net): graphs, searches, MSTs and
   topology generators. *)

let check = Alcotest.check

(* Minimal substring search used by the DOT tests. *)
module Astring_like = struct
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

(* A small weighted graph used by several suites:

       0 --1.0-- 1 --1.0-- 2
       |                   |
      4.0                 1.0
       |                   |
       3 -------1.0------- 4
*)
let house () =
  Oracle.Graph.of_edges 5
    [ (0, 1, 1.0); (1, 2, 1.0); (0, 3, 4.0); (2, 4, 1.0); (3, 4, 1.0) ]

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_basic () =
  let g = house () in
  check Alcotest.int "nodes" 5 (Net.Graph.n_nodes g);
  check Alcotest.int "edges" 5 (Net.Graph.n_edges g);
  check Alcotest.bool "has edge" true (Net.Graph.has_edge g 0 1);
  check Alcotest.bool "symmetric" true (Net.Graph.has_edge g 1 0);
  check Alcotest.bool "absent" false (Net.Graph.has_edge g 0 4);
  check Alcotest.(float 0.0) "weight" 4.0 (Net.Graph.weight g 0 3);
  check Alcotest.(float 0.0) "weight symmetric" 4.0 (Net.Graph.weight g 3 0)

let test_graph_neighbors () =
  let g = house () in
  check
    Alcotest.(list (pair int (float 0.0)))
    "neighbors sorted" [ (1, 1.0); (3, 4.0) ] (Net.Graph.neighbors g 0);
  check Alcotest.int "degree" 2 (Net.Graph.degree g 0)

let test_graph_link_state () =
  let g = house () in
  Net.Graph.set_link g 0 1 ~up:false;
  check Alcotest.bool "down" false (Net.Graph.link_is_up g 0 1);
  check Alcotest.bool "edge persists" true (Net.Graph.has_edge g 0 1);
  check Alcotest.int "live edges" 4 (Net.Graph.n_edges g);
  check Alcotest.int "degree excludes down" 1 (Net.Graph.degree g 0);
  check
    Alcotest.(list (pair int (float 0.0)))
    "neighbors exclude down" [ (3, 4.0) ] (Net.Graph.neighbors g 0);
  Net.Graph.set_link g 0 1 ~up:true;
  check Alcotest.bool "up again" true (Net.Graph.link_is_up g 0 1);
  check Alcotest.(float 0.0) "weight preserved" 1.0 (Net.Graph.weight g 0 1)

let test_graph_validation () =
  let g = Net.Graph.create 3 in
  Net.Graph.add_edge g 0 1 ~weight:1.0;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.add_edge: edge (0, 1) exists") (fun () ->
      Net.Graph.add_edge g 0 1 ~weight:2.0);
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Net.Graph.add_edge g 2 2 ~weight:1.0);
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Graph.add_edge: weight must be finite and positive")
    (fun () -> Net.Graph.add_edge g 1 2 ~weight:0.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph: node 5 out of range [0, 3)") (fun () ->
      Net.Graph.add_edge g 1 5 ~weight:1.0)

let test_graph_copy_independent () =
  let g = house () in
  let g' = Net.Graph.copy g in
  Net.Graph.set_link g' 0 1 ~up:false;
  check Alcotest.bool "original unaffected" true (Net.Graph.link_is_up g 0 1);
  check Alcotest.bool "copy changed" false (Net.Graph.link_is_up g' 0 1)

let test_graph_version () =
  let g = Net.Graph.create 3 in
  let version = Alcotest.(check int) in
  version "fresh graph" 0 (Net.Graph.version g);
  Net.Graph.add_edge g 0 1 ~weight:1.0;
  Net.Graph.add_edge g 1 2 ~weight:2.0;
  version "add_edge bumps" 2 (Net.Graph.version g);
  Net.Graph.set_link g 0 1 ~up:false;
  version "set_link flip bumps" 3 (Net.Graph.version g);
  Net.Graph.set_link g 0 1 ~up:false;
  Net.Graph.set_link g 1 2 ~up:true;
  version "set_link to current state" 3 (Net.Graph.version g);
  ignore (Net.Graph.neighbors g 1);
  Net.Graph.iter_neighbors g 1 (fun _ _ -> ());
  ignore (Net.Graph.edges g);
  ignore (Net.Graph.all_edges g);
  ignore (Net.Graph.degree g 1);
  ignore (Net.Graph.link_is_up g 0 1);
  version "reads" 3 (Net.Graph.version g);
  Net.Graph.set_link g 0 1 ~up:true;
  version "flip back bumps" 4 (Net.Graph.version g);
  let g' = Net.Graph.copy g in
  version "copy starts at 0" 0 (Net.Graph.version g');
  Net.Graph.set_link g' 0 1 ~up:false;
  version "copy mutations stay in the copy" 4 (Net.Graph.version g)

let test_graph_equal () =
  let a = house () and b = house () in
  check Alcotest.bool "equal copies" true (Oracle.Graph.equal a b);
  Net.Graph.set_link b 0 1 ~up:false;
  check Alcotest.bool "state matters" false (Oracle.Graph.equal a b)

let test_graph_edges_listing () =
  let g = house () in
  Net.Graph.set_link g 3 4 ~up:false;
  let live = Net.Graph.edges g in
  check Alcotest.int "live listing" 4 (List.length live);
  List.iter
    (fun (e : Net.Graph.edge) ->
      check Alcotest.bool "u < v" true (e.u < e.v))
    live;
  check Alcotest.int "all listing includes down" 5
    (List.length (Net.Graph.all_edges g))

(* ------------------------------------------------------------------ *)
(* Union-find *)

let test_union_find () =
  let uf = Net.Union_find.create 6 in
  check Alcotest.int "initial sets" 6 (Net.Union_find.n_sets uf);
  check Alcotest.bool "union merges" true (Net.Union_find.union uf 0 1);
  check Alcotest.bool "redundant union" false (Net.Union_find.union uf 1 0);
  ignore (Net.Union_find.union uf 2 3);
  ignore (Net.Union_find.union uf 0 3);
  let find = Net.Union_find.find uf in
  check Alcotest.bool "transitive" true (Int.equal (find 1) (find 2));
  check Alcotest.bool "separate" false (Int.equal (find 0) (find 4));
  check Alcotest.int "set count" 3 (Net.Union_find.n_sets uf)

(* ------------------------------------------------------------------ *)
(* BFS *)

let test_bfs_hops_line () =
  let g = Net.Topo_gen.line 5 in
  check Alcotest.(list int) "hops from 0" [ 0; 1; 2; 3; 4 ]
    (Array.to_list (Oracle.Bfs.hops g 0))

let test_bfs_hops_ring () =
  let g = Net.Topo_gen.ring 6 in
  check Alcotest.(list int) "hops wrap" [ 0; 1; 2; 3; 2; 1 ]
    (Array.to_list (Oracle.Bfs.hops g 0))

let test_bfs_unreachable () =
  let g = Oracle.Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let hops = Oracle.Bfs.hops g 0 in
  check Alcotest.int "reachable" 1 hops.(1);
  check Alcotest.bool "unreachable marked" true (hops.(2) = max_int);
  check Alcotest.bool "disconnected" false (Net.Bfs.is_connected g);
  check
    Alcotest.(list (list int))
    "components" [ [ 0; 1 ]; [ 2; 3 ] ] (Net.Bfs.components g)

let test_bfs_connectivity_after_failure () =
  let g = Net.Topo_gen.ring 5 in
  Net.Graph.set_link g 0 1 ~up:false;
  check Alcotest.bool "ring minus one link still connected" true
    (Net.Bfs.is_connected g);
  Net.Graph.set_link g 2 3 ~up:false;
  check Alcotest.bool "two failures split the ring" false (Net.Bfs.is_connected g)

let test_bfs_diameter () =
  check Alcotest.int "line diameter" 6 (Net.Bfs.hop_diameter (Net.Topo_gen.line 7));
  check Alcotest.int "ring diameter" 3 (Net.Bfs.hop_diameter (Net.Topo_gen.ring 6));
  check Alcotest.int "star diameter" 2 (Net.Bfs.hop_diameter (Net.Topo_gen.star 8));
  check Alcotest.int "complete diameter" 1
    (Net.Bfs.hop_diameter (Net.Topo_gen.complete 5))

let test_bfs_diameter_memo () =
  let g = Net.Topo_gen.ring 8 in
  check Alcotest.int "ring 8" 4 (Net.Bfs.hop_diameter g);
  Net.Graph.set_link g 0 1 ~up:false;
  check Alcotest.int "one link cut" 7 (Net.Bfs.hop_diameter g);
  Net.Graph.set_link g 0 1 ~up:true;
  check Alcotest.int "link restored" 4 (Net.Bfs.hop_diameter g);
  Net.Graph.add_edge g 0 4 ~weight:1.0;
  check Alcotest.int "one chord" 4 (Net.Bfs.hop_diameter g);
  Net.Graph.add_edge g 2 6 ~weight:1.0;
  check Alcotest.int "two chords" 3 (Net.Bfs.hop_diameter g)

(* ------------------------------------------------------------------ *)
(* Dijkstra *)

let test_dijkstra_house () =
  let g = house () in
  let r = Net.Dijkstra.run g 0 in
  check Alcotest.(float 0.0) "to 1" 1.0 r.dist.(1);
  check Alcotest.(float 0.0) "to 2" 2.0 r.dist.(2);
  check Alcotest.(float 0.0) "to 4" 3.0 r.dist.(4);
  (* 0-3 direct costs 4.0 but 0-1-2-4-3 also costs 4.0; either is fine,
     the distance must be 4.0. *)
  check Alcotest.(float 0.0) "to 3" 4.0 r.dist.(3)

let test_dijkstra_path () =
  let g = house () in
  check
    Alcotest.(option (list int))
    "path follows cheap edges"
    (Some [ 0; 1; 2; 4 ])
    (Net.Dijkstra.path g ~src:0 ~dst:4)

let test_dijkstra_path_valid () =
  let rng = Sim.Rng.create 21 in
  let g = Net.Topo_gen.waxman rng ~n:40 in
  let r = Net.Dijkstra.run g 0 in
  for dst = 0 to 39 do
    match Net.Dijkstra.path_of_result r ~src:0 ~dst with
    | Some p ->
      check Alcotest.bool "path valid" true (Oracle.Path.is_valid g p);
      check Alcotest.(float 1e-9) "path cost equals dist" r.dist.(dst)
        (Net.Path.cost g p)
    | None -> Alcotest.fail "connected graph must have a path"
  done

let test_dijkstra_unreachable () =
  let g = Oracle.Graph.of_edges 3 [ (0, 1, 1.0) ] in
  check Alcotest.bool "infinite" true
    (Oracle.Dijkstra.distance g 0 2 = infinity);
  check Alcotest.(option (list int)) "no path" None (Net.Dijkstra.path g ~src:0 ~dst:2)

let test_dijkstra_respects_link_state () =
  let g = house () in
  let before = Oracle.Dijkstra.distance g 0 1 in
  Net.Graph.set_link g 0 1 ~up:false;
  check Alcotest.bool "detour is longer" true
    (Oracle.Dijkstra.distance g 0 1 > before)

let test_dijkstra_reroute_value () =
  (* With 0-1 down the best route is 0-3-4-2-1 = 4 + 1 + 1 + 1. *)
  let g = house () in
  Net.Graph.set_link g 0 1 ~up:false;
  check Alcotest.(float 0.0) "exact detour cost" 7.0 (Oracle.Dijkstra.distance g 0 1)

let test_dijkstra_unit_weights_match_bfs () =
  let rng = Sim.Rng.create 31 in
  let g = Oracle.Topo_gen.erdos_renyi rng ~n:30 ~min_weight:1.0 ~max_weight:1.0 () in
  let hops = Oracle.Bfs.hops g 0 in
  let r = Net.Dijkstra.run g 0 in
  Array.iteri
    (fun v h ->
      if h <> max_int then
        check Alcotest.(float 1e-9) "dijkstra = bfs on unit weights"
          (float_of_int h) r.dist.(v))
    hops

let test_dijkstra_all_pairs_symmetric () =
  let rng = Sim.Rng.create 41 in
  let g = Net.Topo_gen.waxman rng ~n:25 in
  let d = Oracle.Dijkstra.all_pairs g in
  for u = 0 to 24 do
    for v = 0 to 24 do
      check Alcotest.(float 1e-9) "symmetric" d.(u).(v) d.(v).(u)
    done;
    check Alcotest.(float 0.0) "diagonal" 0.0 d.(u).(u)
  done

(* Two domains search one shared graph from every source, in opposite
   orders, racing to allocate a version's memo slots and to fill each
   slot.  A racing write stores an equal value, so each domain's results
   equal a single-domain run.  Every round moves the version first; the
   graph is not mutated while the domains run. *)
let test_dijkstra_memo_domain_race () =
  let n = 400 in
  let g = Net.Topo_gen.waxman (Sim.Rng.create 71) ~n in
  (* Build the cached adjacency rows up front, so only the memo races. *)
  ignore (Net.Graph.n_edges g);
  let edges = Array.of_list (Net.Graph.edges g) in
  let same (a : Net.Dijkstra.result) (b : Net.Dijkstra.result) =
    Array.for_all2 Float.equal a.dist b.dist
    && Array.for_all2 Int.equal a.pred b.pred
  in
  for round = 0 to 3 do
    let e = edges.(round * 7 mod Array.length edges) in
    Net.Graph.set_link g e.u e.v ~up:false;
    let single = Array.init n (Net.Dijkstra.run (Net.Graph.copy g)) in
    let raced =
      Runner.Pool.map ~domains:2
        (fun descending ->
          List.init n (fun i ->
              let src = if descending then n - 1 - i else i in
              (src, Net.Dijkstra.run g src)))
        [ false; true ]
    in
    List.iter
      (List.iter (fun (src, r) ->
           if not (same single.(src) r) then
             Alcotest.failf "round %d, source %d: raced search differs" round
               src))
      raced
  done

(* ------------------------------------------------------------------ *)
(* MST *)

let test_mst_house () =
  let g = house () in
  let mst = Net.Mst.kruskal g in
  check Alcotest.int "n-1 edges" 4 (List.length mst);
  check Alcotest.bool "spans" true (Oracle.Mst.spans g mst);
  check Alcotest.(float 0.0) "cost avoids the 4.0 edge" 4.0 (Oracle.Mst.cost mst)

let test_mst_disconnected_forest () =
  let g = Oracle.Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 2.0) ] in
  let mst = Net.Mst.kruskal g in
  check Alcotest.int "forest edges" 2 (List.length mst);
  check Alcotest.bool "cannot span disconnected" false (Oracle.Mst.spans g mst)

let test_mst_random_spans () =
  let rng = Sim.Rng.create 51 in
  for seed = 1 to 10 do
    ignore seed;
    let g = Net.Topo_gen.waxman rng ~n:30 in
    let mst = Net.Mst.kruskal g in
    check Alcotest.int "tree size" 29 (List.length mst);
    check Alcotest.bool "spans" true (Oracle.Mst.spans g mst)
  done

let test_mst_of_matrix () =
  let m =
    [|
      [| 0.0; 1.0; 5.0 |];
      [| 1.0; 0.0; 2.0 |];
      [| 5.0; 2.0; 0.0 |];
    |]
  in
  let mst = Net.Mst.mst_of_matrix m in
  check Alcotest.int "two edges" 2 (List.length mst);
  let cost = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 mst in
  check Alcotest.(float 0.0) "min cost" 3.0 cost

let test_mst_minimality_vs_random_tree () =
  (* The MST cost never exceeds the cost of a random spanning tree built
     by BFS. *)
  let rng = Sim.Rng.create 61 in
  let g = Net.Topo_gen.waxman rng ~n:25 in
  let mst_cost = Oracle.Mst.cost (Net.Mst.kruskal g) in
  (* BFS tree from node 0. *)
  let r = Net.Dijkstra.run g 0 in
  let bfs_cost = ref 0.0 in
  Array.iteri
    (fun v p -> if p >= 0 then bfs_cost := !bfs_cost +. Net.Graph.weight g p v)
    r.pred;
  check Alcotest.bool "mst <= sp-tree" true (mst_cost <= !bfs_cost +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Topology generators *)

let test_topo_waxman_connected () =
  for seed = 1 to 10 do
    let rng = Sim.Rng.create seed in
    let g = Net.Topo_gen.waxman rng ~n:50 in
    check Alcotest.bool "connected" true (Net.Bfs.is_connected g);
    check Alcotest.int "node count" 50 (Net.Graph.n_nodes g)
  done

let test_topo_waxman_deterministic () =
  let g1 = Net.Topo_gen.waxman (Sim.Rng.create 5) ~n:30 in
  let g2 = Net.Topo_gen.waxman (Sim.Rng.create 5) ~n:30 in
  check Alcotest.bool "same seed, same graph" true (Oracle.Graph.equal g1 g2)

let test_topo_waxman_target_degree () =
  List.iter
    (fun n ->
      let degrees =
        List.map
          (fun seed ->
            let rng = Sim.Rng.create seed in
            let g = Net.Topo_gen.waxman rng ~n in
            2.0 *. float_of_int (Net.Graph.n_edges g) /. float_of_int n)
          [ 1; 2; 3; 4; 5 ]
      in
      let avg = List.fold_left ( +. ) 0.0 degrees /. 5.0 in
      if avg < 2.3 || avg > 5.0 then
        Alcotest.failf "degree calibration off at n=%d: %.17g" n avg)
    [ 20; 60; 100 ]

let test_topo_erdos_renyi () =
  for seed = 1 to 5 do
    let rng = Sim.Rng.create seed in
    let g = Oracle.Topo_gen.erdos_renyi rng ~n:40 () in
    check Alcotest.bool "connected" true (Net.Bfs.is_connected g);
    List.iter
      (fun (e : Net.Graph.edge) ->
        if e.weight < 1.0 || e.weight > 10.0 +. 1e-6 then
          Alcotest.failf "weight out of range: %.17g" e.weight)
      (Net.Graph.edges g)
  done

let test_topo_regular_shapes () =
  check Alcotest.int "ring edges" 6 (Net.Graph.n_edges (Net.Topo_gen.ring 6));
  check Alcotest.int "line edges" 5 (Net.Graph.n_edges (Net.Topo_gen.line 6));
  check Alcotest.int "star edges" 5 (Net.Graph.n_edges (Net.Topo_gen.star 6));
  check Alcotest.int "complete edges" 15
    (Net.Graph.n_edges (Net.Topo_gen.complete 6));
  check Alcotest.int "grid edges" 12
    (Net.Graph.n_edges (Net.Topo_gen.grid ~rows:3 ~cols:3));
  List.iter
    (fun g -> check Alcotest.bool "connected" true (Net.Bfs.is_connected g))
    [
      Net.Topo_gen.ring 6;
      Net.Topo_gen.line 6;
      Net.Topo_gen.star 6;
      Net.Topo_gen.complete 6;
      Net.Topo_gen.grid ~rows:3 ~cols:4;
    ]

let test_topo_grid_structure () =
  let g = Net.Topo_gen.grid ~rows:2 ~cols:3 in
  (* 0 1 2 / 3 4 5 *)
  check Alcotest.bool "right neighbor" true (Net.Graph.has_edge g 0 1);
  check Alcotest.bool "down neighbor" true (Net.Graph.has_edge g 1 4);
  check Alcotest.bool "no diagonal" false (Net.Graph.has_edge g 0 4)

let test_topo_invalid () =
  Alcotest.check_raises "ring too small"
    (Invalid_argument "Topo_gen.ring: need at least 3 nodes") (fun () ->
      ignore (Net.Topo_gen.ring 2))

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_operations () =
  let g = house () in
  let p = [ 0; 1; 2; 4 ] in
  check Alcotest.bool "valid" true (Oracle.Path.is_valid g p);
  check Alcotest.(float 0.0) "cost" 3.0 (Net.Path.cost g p);
  check Alcotest.int "hops" 3 (Net.Path.hops p);
  check
    Alcotest.(list (pair int int))
    "edges" [ (0, 1); (1, 2); (2, 4) ] (Net.Path.edges p)

let test_path_invalid_cases () =
  let g = house () in
  check Alcotest.bool "empty invalid" false (Oracle.Path.is_valid g []);
  check Alcotest.bool "singleton valid" true (Oracle.Path.is_valid g [ 2 ]);
  check Alcotest.bool "non-edge hop" false (Oracle.Path.is_valid g [ 0; 4 ]);
  Net.Graph.set_link g 0 1 ~up:false;
  check Alcotest.bool "down link invalidates" false (Oracle.Path.is_valid g [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* DOT export *)

let test_dot_structure () =
  let g = house () in
  let dot = Net.Dot.graph g in
  check Alcotest.bool "graph block" true
    (String.length dot > 0
    && String.sub dot 0 5 = "graph");
  (* One line per node and per edge. *)
  List.iter
    (fun needle ->
      if not (List.exists (fun line ->
          let line = String.trim line in
          String.length line >= String.length needle
          && String.sub line 0 (String.length needle) = needle)
          (String.split_on_char '\n' dot))
      then Alcotest.failf "missing %S in dot output" needle)
    [ "0 --"; "3 -- 4" ]

let test_dot_highlight_and_mark () =
  let g = house () in
  let dot = Net.Dot.graph ~highlight:[ (1, 0) ] ~mark:[ 2 ] g in
  check Alcotest.bool "highlight drawn bold" true
    (Astring_like.contains dot "penwidth=3");
  check Alcotest.bool "marked node filled" true
    (Astring_like.contains dot "fillcolor=lightblue")

let test_dot_down_link_dashed () =
  let g = house () in
  Net.Graph.set_link g 0 1 ~up:false;
  check Alcotest.bool "dashed" true
    (Astring_like.contains (Net.Dot.graph g) "style=dashed")

let () =
  Alcotest.run "net"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basic;
          Alcotest.test_case "neighbors" `Quick test_graph_neighbors;
          Alcotest.test_case "link state" `Quick test_graph_link_state;
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "copy independence" `Quick test_graph_copy_independent;
          Alcotest.test_case "version counter" `Quick test_graph_version;
          Alcotest.test_case "equality" `Quick test_graph_equal;
          Alcotest.test_case "edge listings" `Quick test_graph_edges_listing;
        ] );
      ("union-find", [ Alcotest.test_case "operations" `Quick test_union_find ]);
      ( "bfs",
        [
          Alcotest.test_case "hops on a line" `Quick test_bfs_hops_line;
          Alcotest.test_case "hops on a ring" `Quick test_bfs_hops_ring;
          Alcotest.test_case "unreachable and components" `Quick test_bfs_unreachable;
          Alcotest.test_case "connectivity after failures" `Quick
            test_bfs_connectivity_after_failure;
          Alcotest.test_case "diameters" `Quick test_bfs_diameter;
          Alcotest.test_case "diameter cache follows the version" `Quick
            test_bfs_diameter_memo;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "known distances" `Quick test_dijkstra_house;
          Alcotest.test_case "path extraction" `Quick test_dijkstra_path;
          Alcotest.test_case "paths valid on random graph" `Quick
            test_dijkstra_path_valid;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "respects link state" `Quick
            test_dijkstra_respects_link_state;
          Alcotest.test_case "reroute cost" `Quick test_dijkstra_reroute_value;
          Alcotest.test_case "matches bfs on unit weights" `Quick
            test_dijkstra_unit_weights_match_bfs;
          Alcotest.test_case "all-pairs symmetric" `Quick
            test_dijkstra_all_pairs_symmetric;
          Alcotest.test_case "memo shared by racing domains" `Quick
            test_dijkstra_memo_domain_race;
        ] );
      ( "mst",
        [
          Alcotest.test_case "known mst" `Quick test_mst_house;
          Alcotest.test_case "forest on disconnected" `Quick
            test_mst_disconnected_forest;
          Alcotest.test_case "random graphs span" `Quick test_mst_random_spans;
          Alcotest.test_case "matrix closure mst" `Quick test_mst_of_matrix;
          Alcotest.test_case "minimality" `Quick test_mst_minimality_vs_random_tree;
        ] );
      ( "topo-gen",
        [
          Alcotest.test_case "waxman connected" `Quick test_topo_waxman_connected;
          Alcotest.test_case "waxman deterministic" `Quick
            test_topo_waxman_deterministic;
          Alcotest.test_case "waxman degree calibration" `Quick
            test_topo_waxman_target_degree;
          Alcotest.test_case "erdos-renyi" `Quick test_topo_erdos_renyi;
          Alcotest.test_case "regular shapes" `Quick test_topo_regular_shapes;
          Alcotest.test_case "grid structure" `Quick test_topo_grid_structure;
          Alcotest.test_case "invalid sizes" `Quick test_topo_invalid;
        ] );
      ( "path",
        [
          Alcotest.test_case "operations" `Quick test_path_operations;
          Alcotest.test_case "invalid cases" `Quick test_path_invalid_cases;
        ] );
      ( "dot",
        [
          Alcotest.test_case "structure" `Quick test_dot_structure;
          Alcotest.test_case "highlight and mark" `Quick test_dot_highlight_and_mark;
          Alcotest.test_case "down link dashed" `Quick test_dot_down_link_dashed;
        ] );
    ]
