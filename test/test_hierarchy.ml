(* Tests for the hierarchical D-GMC extension (lib/hierarchy). *)

let check = Alcotest.check

let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

let assert_converged name h =
  if not (Hierarchy.Hmc.converged h mc) then Alcotest.failf "%s: diverged" name

let make ?(seed = 5) ?(areas = 4) ?(per_area = 8) () =
  let rng = Sim.Rng.create seed in
  let graph, partition = Net.Topo_gen.clustered rng ~areas ~per_area () in
  (graph, partition, Hierarchy.Hmc.create ~graph ~partition ~config:Dgmc.Config.atm_lan ())

(* ------------------------------------------------------------------ *)
(* Clustered topology generator *)

let test_clustered_shape () =
  let rng = Sim.Rng.create 1 in
  let graph, partition = Net.Topo_gen.clustered rng ~areas:5 ~per_area:6 () in
  check Alcotest.int "nodes" 30 (Net.Graph.n_nodes graph);
  check Alcotest.int "areas" 5 (Array.length partition);
  check Alcotest.bool "connected" true (Net.Bfs.is_connected graph);
  Array.iteri
    (fun a members ->
      check Alcotest.int "area size" 6 (List.length members);
      List.iter
        (fun s ->
          check Alcotest.int "contiguous ids" a (s / 6))
        members)
    partition

let test_clustered_inter_links () =
  let rng = Sim.Rng.create 2 in
  let graph, partition = Net.Topo_gen.clustered rng ~areas:3 ~per_area:5 ~inter_links:2 () in
  let area_of s = s / 5 in
  let inter =
    List.filter
      (fun (e : Net.Graph.edge) -> area_of e.u <> area_of e.v)
      (Net.Graph.edges graph)
  in
  (* A ring of 3 areas with 2 links per adjacency => 6 inter links (a
     few may collide and be dropped, never more than 6). *)
  check Alcotest.bool "inter-link count in range" true
    (List.length inter >= 3 && List.length inter <= 6);
  ignore partition

(* ------------------------------------------------------------------ *)
(* Construction validation *)

let test_create_validation () =
  let graph = Net.Topo_gen.grid ~rows:2 ~cols:4 () in
  Alcotest.check_raises "overlap" (Invalid_argument "Hmc: switch 0 in two areas")
    (fun () ->
      ignore
        (Hierarchy.Hmc.create ~graph
           ~partition:[| [ 0; 1; 2; 3 ]; [ 0; 4; 5; 6 ] |]
           ~config:Dgmc.Config.atm_lan ()));
  Alcotest.check_raises "not covering"
    (Invalid_argument "Hmc: partition does not cover the graph") (fun () ->
      ignore
        (Hierarchy.Hmc.create ~graph
           ~partition:[| [ 0; 1; 2 ]; [ 4; 5; 6 ] |]
           ~config:Dgmc.Config.atm_lan ()));
  let hc = Health.Config.make ~period:0.0005 ~horizon:0.08 () in
  Alcotest.check_raises "health layer"
    (Invalid_argument "Hmc.create: the link-health layer is not supported")
    (fun () ->
      ignore
        (Hierarchy.Hmc.create ~graph
           ~partition:[| [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] |]
           ~config:{ Dgmc.Config.atm_lan with Dgmc.Config.health = Some hc }
           ()))

let test_logical_graph_built () =
  let _, partition, h = make () in
  let lg = Hierarchy.Hmc.logical_graph h in
  check Alcotest.int "one node per area" (Array.length partition)
    (Net.Graph.n_nodes lg);
  (* The clustered generator rings the areas, so the logical graph is
     connected. *)
  check Alcotest.bool "logical connected" true (Net.Bfs.is_connected lg)

(* ------------------------------------------------------------------ *)
(* Protocol behaviour *)

let test_single_area_mc () =
  (* All members in one area: no logical edges, no gateways. *)
  let _, partition, h = make () in
  let members =
    match partition.(1) with a :: b :: _ -> [ a; b ] | _ -> assert false
  in
  List.iter (fun s -> Oracle.Hmc.join h ~switch:s mc Dgmc.Member.Both) members;
  Hierarchy.Hmc.run h;
  assert_converged "single-area MC" h;
  let totals = Hierarchy.Hmc.totals h in
  check Alcotest.int "no gateways needed" 0 totals.gateway_instructions;
  let tree = Option.get (Hierarchy.Hmc.global_tree h mc) in
  check Alcotest.(list int) "terminals" (List.sort Int.compare members)
    (Mctree.Tree.terminals tree)

let test_cross_area_mc () =
  let graph, partition, h = make () in
  let pick a = List.nth partition.(a) 2 in
  let members = [ pick 0; pick 2 ] in
  List.iter (fun s -> Oracle.Hmc.join h ~switch:s mc Dgmc.Member.Both) members;
  Hierarchy.Hmc.run h;
  assert_converged "cross-area MC" h;
  let tree = Option.get (Hierarchy.Hmc.global_tree h mc) in
  check Alcotest.bool "valid stitched tree" true
    (Mctree.Tree.is_valid_mc_topology graph
       (Mctree.Tree.with_terminals tree (List.sort Int.compare members)));
  let totals = Hierarchy.Hmc.totals h in
  check Alcotest.bool "gateways instructed" true (totals.gateway_instructions > 0);
  check Alcotest.bool "logical level active" true (totals.logical_floodings > 0)

let test_all_areas_mc () =
  let graph, partition, h = make ~areas:5 ~per_area:6 () in
  let members = Array.to_list (Array.map (fun l -> List.nth l 1) partition) in
  List.iter (fun s -> Oracle.Hmc.join h ~switch:s mc Dgmc.Member.Both) members;
  Hierarchy.Hmc.run h;
  assert_converged "all-areas MC" h;
  let tree = Option.get (Hierarchy.Hmc.global_tree h mc) in
  check Alcotest.bool "spans all areas' members" true
    (Mctree.Tree.is_valid_mc_topology graph tree)

let test_leave_shrinks () =
  let _, partition, h = make () in
  let pick a i = List.nth partition.(a) i in
  List.iter
    (fun s -> Oracle.Hmc.join h ~switch:s mc Dgmc.Member.Both)
    [ pick 0 1; pick 0 2; pick 3 1 ];
  Hierarchy.Hmc.run h;
  assert_converged "before leave" h;
  (* The only member of area 3 leaves: the logical MC shrinks and area
     3's gateways retire. *)
  Oracle.Hmc.leave h ~switch:(pick 3 1) mc;
  Hierarchy.Hmc.run h;
  assert_converged "after remote area emptied" h;
  let tree = Option.get (Hierarchy.Hmc.global_tree h mc) in
  check Alcotest.(list int) "terminals shrank"
    (List.sort Int.compare [ pick 0 1; pick 0 2 ])
    (Mctree.Tree.terminals tree)

let test_full_drain () =
  let _, partition, h = make () in
  let members = [ List.nth partition.(0) 1; List.nth partition.(2) 1 ] in
  List.iter (fun s -> Oracle.Hmc.join h ~switch:s mc Dgmc.Member.Both) members;
  Hierarchy.Hmc.run h;
  List.iter
    (fun s ->
      Oracle.Hmc.leave h ~switch:s mc;
      Hierarchy.Hmc.run h)
    members;
  assert_converged "after drain" h;
  check Alcotest.bool "no global tree" true (Hierarchy.Hmc.global_tree h mc = None);
  let totals = Hierarchy.Hmc.totals h in
  check Alcotest.int "events" 4 totals.events

let test_member_also_gateway () =
  (* A switch that is both a real member and a gateway must stay in the
     MC when its host leaves while it still relays, and vice versa. *)
  let graph, partition, h = make () in
  ignore graph;
  (* Put a member at every switch of area 1 likely to include the
     gateway, plus a member in area 3 to force inter-area structure. *)
  List.iter
    (fun s -> Oracle.Hmc.join h ~switch:s mc Dgmc.Member.Both)
    (partition.(1) @ [ List.nth partition.(3) 1 ]);
  Hierarchy.Hmc.run h;
  assert_converged "dense area + remote member" h;
  (* Now every area-1 host leaves; gateways (if any in area 1) must
     persist exactly while the logical tree needs them. *)
  List.iter (fun s -> Oracle.Hmc.leave h ~switch:s mc) partition.(1);
  Hierarchy.Hmc.run h;
  assert_converged "area-1 hosts gone" h

let test_churn_convergence () =
  let _, partition, h = make ~areas:5 ~per_area:6 ~seed:9 () in
  let rng = Sim.Rng.create 33 in
  let all = Array.to_list partition |> List.concat in
  let members = ref [] in
  for _ = 1 to 30 do
    let s = Sim.Rng.pick rng all in
    if List.mem s !members then begin
      members := List.filter (fun x -> x <> s) !members;
      Oracle.Hmc.leave h ~switch:s mc
    end
    else begin
      members := s :: !members;
      Oracle.Hmc.join h ~switch:s mc Dgmc.Member.Both
    end;
    Hierarchy.Hmc.run h;
    assert_converged "churn step" h
  done

let test_signaling_stays_local () =
  (* An event in area 0, with the MC confined to areas 0 and 1, must not
     flood areas 2 and 3 — the scalability claim. *)
  let graph, partition, h = make ~areas:4 ~per_area:8 () in
  let pick a i = List.nth partition.(a) i in
  List.iter
    (fun s -> Oracle.Hmc.join h ~switch:s mc Dgmc.Member.Both)
    [ pick 0 1; pick 1 1 ];
  Hierarchy.Hmc.run h;
  assert_converged "setup" h;
  let before = Hierarchy.Hmc.totals h in
  (* Another join in area 0: purely intra-area (area already a logical
     member, gateways unchanged). *)
  Oracle.Hmc.join h ~switch:(pick 0 3) mc Dgmc.Member.Both;
  Hierarchy.Hmc.run h;
  assert_converged "local join" h;
  let after = Hierarchy.Hmc.totals h in
  let totals =
    {
      after with
      logical_floodings = after.logical_floodings - before.logical_floodings;
      intra_floodings = after.intra_floodings - before.intra_floodings;
      intra_messages = after.intra_messages - before.intra_messages;
    }
  in
  check Alcotest.int "no logical signaling" 0 totals.logical_floodings;
  check Alcotest.bool "the join flooded" true (totals.intra_floodings > 0);
  (* A hop-by-hop flood over a connected area of |V| switches and |E|
     links costs 2|E| - (|V| - 1) transmissions: every switch forwards
     on each link but the one it first heard on, the origin on all.  So
     every intra message was one of area 0's floods. *)
  let in_area0 s = List.mem s partition.(0) in
  let area_links =
    List.length
      (List.filter
         (fun (e : Net.Graph.edge) -> in_area0 e.u && in_area0 e.v)
         (Net.Graph.edges graph))
  in
  check Alcotest.int "intra signaling only in area 0"
    (totals.intra_floodings
    * ((2 * area_links) - (List.length partition.(0) - 1)))
    totals.intra_messages

(* One cross-area scenario, its timing and logical-level cost pinned
   exactly: an area-2 member joins beside an area-0 one, then leaves.
   The figures print no hierarchy timing, so only this catches a change
   to the logical level's 3 x t_hop per hop. *)
let test_cross_area_pinned () =
  let _, partition, h = make () in
  let pick a = List.nth partition.(a) 2 in
  let now () = Printf.sprintf "%h" (Sim.Engine.now (Hierarchy.Hmc.engine h)) in
  Oracle.Hmc.join h ~switch:(pick 0) mc Dgmc.Member.Both;
  Oracle.Hmc.join h ~switch:(pick 2) mc Dgmc.Member.Both;
  Hierarchy.Hmc.run h;
  check Alcotest.string "joins quiesce at" "0x1.b75a74c09c3d1p-10" (now ());
  Oracle.Hmc.leave h ~switch:(pick 2) mc;
  Hierarchy.Hmc.run h;
  assert_converged "pinned scenario" h;
  check Alcotest.string "leave quiesces at" "0x1.7fc7607c419a4p-9" (now ());
  let totals = Hierarchy.Hmc.totals h in
  check Alcotest.int "logical floodings" 5 totals.logical_floodings;
  check Alcotest.int "logical messages" 25 totals.logical_messages;
  check Alcotest.int "computations" 22 totals.computations

let () =
  Alcotest.run "hierarchy"
    [
      ( "clustered-topology",
        [
          Alcotest.test_case "shape" `Quick test_clustered_shape;
          Alcotest.test_case "inter links" `Quick test_clustered_inter_links;
        ] );
      ( "construction",
        [
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "logical graph" `Quick test_logical_graph_built;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "single-area MC" `Quick test_single_area_mc;
          Alcotest.test_case "cross-area MC" `Quick test_cross_area_mc;
          Alcotest.test_case "all-areas MC" `Quick test_all_areas_mc;
          Alcotest.test_case "leave shrinks" `Quick test_leave_shrinks;
          Alcotest.test_case "full drain" `Quick test_full_drain;
          Alcotest.test_case "member doubling as gateway" `Quick
            test_member_also_gateway;
          Alcotest.test_case "churn" `Quick test_churn_convergence;
          Alcotest.test_case "signaling stays local" `Quick
            test_signaling_stays_local;
          Alcotest.test_case "cross-area scenario pinned" `Quick
            test_cross_area_pinned;
        ] );
    ]
