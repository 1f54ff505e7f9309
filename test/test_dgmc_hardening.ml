(* Tests for the hardening extensions documented in DESIGN.md §3:
   deterministic tie-breaks, event-counter tombstones, member-snapshot
   adoption, and link-up database resynchronisation. *)

let check = Alcotest.check

let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

let assert_converged name net =
  match Dgmc.Protocol.divergence net mc with
  | [] -> ()
  | reasons -> Alcotest.failf "%s: %s" name (String.concat "; " reasons)

(* Two triangles joined by one bridge; cutting 2-3 partitions. *)
let dumbbell () =
  Oracle.Graph.of_edges 6
    [
      (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0);
      (3, 4, 1.0); (4, 5, 1.0); (3, 5, 1.0);
      (2, 3, 1.0);
    ]

(* ------------------------------------------------------------------ *)
(* Timestamp raise_to *)

let test_raise_to () =
  let ts = Oracle.Timestamp.of_array in
  let a = ts [| 2; 0; 1 |] in
  check Alcotest.bool "raises" true
    (Dgmc.Timestamp.equal (ts [| 2; 3; 1 |]) (Oracle.Timestamp.raise_to a 1 3));
  check Alcotest.bool "never lowers" true
    (Dgmc.Timestamp.equal a (Oracle.Timestamp.raise_to a 0 1));
  check Alcotest.bool "equal is no-op" true
    (Dgmc.Timestamp.equal a (Oracle.Timestamp.raise_to a 0 2));
  Alcotest.check_raises "range" (Invalid_argument "Timestamp.raise_owned: out of range")
    (fun () -> ignore (Oracle.Timestamp.raise_to a 3 1))

(* ------------------------------------------------------------------ *)
(* Tombstones: event numbering survives state deletion *)

let test_rejoin_after_full_drain () =
  (* The MC dies completely (all state deleted), then the same switch
     rejoins: its event numbering must continue, and the new incarnation
     must converge. *)
  let net = Dgmc.Protocol.create ~graph:(dumbbell ()) ~config:Dgmc.Config.atm_lan () in
  Dgmc.Protocol.join net ~switch:0 mc Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  Dgmc.Protocol.leave net ~switch:0 mc;
  Dgmc.Protocol.run net;
  (* All state gone. *)
  for i = 0 to 5 do
    check Alcotest.bool "state deleted" true
      (Dgmc.Switch.members (Dgmc.Protocol.switch net i) mc = None)
  done;
  Dgmc.Protocol.join net ~switch:0 mc Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  assert_converged "after rejoin" net;
  (* The rejoin is switch 0's third event: counters resumed. *)
  let r, _, _ = Option.get (Dgmc.Switch.stamps (Dgmc.Protocol.switch net 0) mc) in
  check Alcotest.int "event numbering continues" 3 (Dgmc.Timestamp.get r 0)

let test_leave_racing_remote_join () =
  (* The scenario that motivated tombstones: switch 0 joins and leaves
     before it has heard that switch 5 joined concurrently (5 is three
     hops away), so 0 transiently sees an empty member list.  Later 0
     rejoins; the rejoin must not read as a stale replay anywhere. *)
  let graph = dumbbell () in
  let config = Dgmc.Config.wan in
  let net = Dgmc.Protocol.create ~graph ~config () in
  let round = Dgmc.Config.round_length config ~graph in
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:0 mc Dgmc.Member.Both;
  Dgmc.Protocol.schedule_join net ~at:(round /. 100.0) ~switch:5 mc Dgmc.Member.Both;
  (* 0 leaves before 5's join can possibly have arrived. *)
  Dgmc.Protocol.schedule_leave net ~at:(round /. 50.0) ~switch:0 mc;
  (* ... and rejoins much later. *)
  Dgmc.Protocol.schedule_join net ~at:(10.0 *. round) ~switch:0 mc Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  assert_converged "rejoin not lost" net;
  let m = Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 3) mc) in
  check Alcotest.(list int) "both members present" [ 0; 5 ] (Dgmc.Member.ids m)

let test_mc_id_reuse_across_incarnations () =
  (* Create, destroy and recreate the same MC id several times with
     different memberships; each incarnation must converge cleanly. *)
  let net = Dgmc.Protocol.create ~graph:(dumbbell ()) ~config:Dgmc.Config.atm_lan () in
  List.iter
    (fun members ->
      List.iter
        (fun s -> Dgmc.Protocol.join net ~switch:s mc Dgmc.Member.Both)
        members;
      Dgmc.Protocol.run net;
      assert_converged "incarnation up" net;
      let m = Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 1) mc) in
      check Alcotest.(list int) "members" (List.sort Int.compare members)
        (Dgmc.Member.ids m);
      List.iter (fun s -> Dgmc.Protocol.leave net ~switch:s mc) members;
      Dgmc.Protocol.run net;
      assert_converged "incarnation down" net)
    [ [ 0; 4 ]; [ 1; 5 ]; [ 2; 3; 0 ] ]

(* ------------------------------------------------------------------ *)
(* Snapshot adoption *)

let test_snapshot_carried_on_proposals () =
  (* Proposal LSAs carry the proposer's member list; a receiver applies
     it only when the stamp covers everything it expects. *)
  let st = Dgmc.Mc_state.create ~n:3 in
  ignore st;
  (* Integration-level check: a switch that missed a membership event
     recovers it from the next accepted proposal.  Covered end-to-end by
     resync tests below; here we check the LSA structure itself. *)
  let lsa =
    Dgmc.Mc_lsa.make ~src:0 ~event:Dgmc.Mc_lsa.No_event ~mc
      ~proposal:(Mctree.Tree.of_terminals [ 0 ])
      ~members:(Dgmc.Member.of_list [ (0, Dgmc.Member.Both) ])
      ~stamp:(Oracle.Timestamp.of_array [| 1; 0; 0 |])
      ()
  in
  check Alcotest.bool "members attached" true (lsa.members <> None);
  check Alcotest.bool "not an event" false (Dgmc.Mc_lsa.is_event lsa)

(* ------------------------------------------------------------------ *)
(* Partition + resynchronisation *)

let partitioned_net () =
  let graph = dumbbell () in
  let net = Dgmc.Protocol.create ~graph ~config:Dgmc.Config.atm_lan () in
  List.iter
    (fun s -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:s mc Dgmc.Member.Both)
    [ 0; 5 ];
  Dgmc.Protocol.run net;
  Oracle.Protocol.link_down net 2 3;
  Dgmc.Protocol.run net;
  net

let test_heal_without_new_events () =
  (* The pure resync case: after the cut heals, the database exchange
     alone (no further membership events) restores global agreement. *)
  let net = partitioned_net () in
  Oracle.Protocol.link_up net 2 3;
  Dgmc.Protocol.run net;
  assert_converged "heal by resync alone" net;
  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc) in
  check Alcotest.(list int) "both members spanned" [ 0; 5 ]
    (Mctree.Tree.terminals tree)

let test_heal_with_membership_changes_during_partition () =
  (* Memberships change on BOTH sides while partitioned; healing must
     reconcile the union view. *)
  let net = partitioned_net () in
  Dgmc.Protocol.join net ~switch:1 mc Dgmc.Member.Both;
  (* left side *)
  Dgmc.Protocol.join net ~switch:4 mc Dgmc.Member.Both;
  (* right side *)
  Dgmc.Protocol.run net;
  Oracle.Protocol.link_up net 2 3;
  Dgmc.Protocol.run net;
  assert_converged "heal reconciles both sides' changes" net;
  let m = Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 2) mc) in
  check Alcotest.(list int) "union membership" [ 0; 1; 4; 5 ] (Dgmc.Member.ids m)

let test_heal_with_leave_during_partition () =
  (* A member leaves while partitioned; after healing the other side
     must learn the departure through resync. *)
  let net = partitioned_net () in
  Dgmc.Protocol.leave net ~switch:5 mc;
  Dgmc.Protocol.run net;
  Oracle.Protocol.link_up net 2 3;
  Dgmc.Protocol.run net;
  assert_converged "departure propagates through heal" net;
  let m = Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 0) mc) in
  check Alcotest.(list int) "only 0 remains" [ 0 ] (Dgmc.Member.ids m)

let test_resync_noop_when_consistent () =
  (* A link-up on an already-consistent network must not disturb state
     or trigger computations. *)
  let graph = dumbbell () in
  let net = Dgmc.Protocol.create ~graph ~config:Dgmc.Config.atm_lan () in
  List.iter
    (fun s -> Dgmc.Protocol.join net ~switch:s mc Dgmc.Member.Both)
    [ 0; 5 ];
  Dgmc.Protocol.run net;
  let before = Option.get (Dgmc.Protocol.agreed_topology net mc) in
  (* Take a non-tree, non-bridge link down and up: 0-1 is in a triangle. *)
  let offtree =
    List.find
      (fun (e : Net.Graph.edge) -> not (Mctree.Tree.mem_edge before e.u e.v))
      (Net.Graph.edges graph)
  in
  Oracle.Protocol.link_down net offtree.u offtree.v;
  Dgmc.Protocol.run net;
  Dgmc.Protocol.reset_counters net;
  Oracle.Protocol.link_up net offtree.u offtree.v;
  Dgmc.Protocol.run net;
  assert_converged "still consistent" net;
  let totals = Dgmc.Protocol.totals net in
  check Alcotest.int "no MC signaling" 0 totals.mc_floodings;
  check Alcotest.int "no computations" 0 totals.computations;
  check Alcotest.bool "topology untouched" true
    (Mctree.Tree.equal before (Option.get (Dgmc.Protocol.agreed_topology net mc)))

let test_direct_resync_call () =
  (* Unit-level: pulling from a better-informed peer adopts its view. *)
  let graph = dumbbell () in
  let net = Dgmc.Protocol.create ~graph ~config:Dgmc.Config.atm_lan () in
  Dgmc.Protocol.join net ~switch:0 mc Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  let informed = Dgmc.Protocol.switch net 0 in
  (* Forge an ignorant peer by resyncing a fresh, isolated switch. *)
  let blank =
    Dgmc.Switch.create ~id:5 ~n:6 ~config:Dgmc.Config.atm_lan
      ~engine:(Dgmc.Protocol.engine net) ~boot:(Lsr.Lsdb.boot graph)
  in
  Dgmc.Switch.connect blank ignore;
  check Alcotest.bool "blank has no state" true (Dgmc.Switch.members blank mc = None);
  Dgmc.Switch.resync blank ~peer:informed;
  (match Dgmc.Switch.members blank mc with
  | Some m -> check Alcotest.(list int) "membership pulled" [ 0 ] (Dgmc.Member.ids m)
  | None -> Alcotest.fail "resync must create state");
  let r_blank, _, _ = Option.get (Dgmc.Switch.stamps blank mc) in
  let r_peer, _, _ = Option.get (Dgmc.Switch.stamps informed mc) in
  check Alcotest.bool "R merged" true (Dgmc.Timestamp.geq r_blank r_peer)

(* ------------------------------------------------------------------ *)
(* Tie-break determinism *)

let test_equal_stamp_tiebreak_is_order_independent () =
  (* Feed the same two equal-stamp proposals to two switches in opposite
     orders: both must end on the Tree.compare-minimal one. *)
  let graph = Net.Topo_gen.grid ~rows:2 ~cols:3 in
  let run order =
    let engine = Sim.Engine.create () in
    let sw =
      Dgmc.Switch.create ~id:5 ~n:6 ~config:Dgmc.Config.atm_lan ~engine
        ~boot:(Lsr.Lsdb.boot graph)
    in
    Dgmc.Switch.connect sw ignore;
    let stamp = Oracle.Timestamp.of_array [| 1; 1; 0; 0; 0; 0 |] in
    let members =
      Dgmc.Member.of_list [ (0, Dgmc.Member.Both); (1, Dgmc.Member.Both) ]
    in
    (* Two different valid trees for {0, 1}: direct edge vs the detour
       through 3 and 4. *)
    let tree_a = Mctree.Tree.of_edges ~terminals:[ 0; 1 ] [ (0, 1) ] in
    let tree_b =
      Mctree.Tree.of_edges ~terminals:[ 0; 1 ] [ (0, 3); (3, 4); (1, 4) ]
    in
    let lsa src tree =
      Dgmc.Mc_lsa.make ~src
        ~event:(if src = 0 then Dgmc.Mc_lsa.Join Dgmc.Member.Both else Dgmc.Mc_lsa.Join Dgmc.Member.Both)
        ~mc ~proposal:tree ~members ~stamp ()
    in
    List.iter (fun l -> Dgmc.Switch.deliver sw (Mc l))
      (match order with
      | `AB -> [ lsa 0 tree_a; lsa 1 tree_b ]
      | `BA -> [ lsa 0 tree_b; lsa 1 tree_a ]);
    Sim.Engine.run engine;
    Option.get (Dgmc.Switch.topology sw mc)
  in
  let t_ab = run `AB and t_ba = run `BA in
  check Alcotest.bool "same winner regardless of order" true
    (Mctree.Tree.equal t_ab t_ba)

let () =
  Alcotest.run "dgmc-hardening"
    [
      ("timestamp", [ Alcotest.test_case "raise_to" `Quick test_raise_to ]);
      ( "tombstones",
        [
          Alcotest.test_case "rejoin after full drain" `Quick
            test_rejoin_after_full_drain;
          Alcotest.test_case "leave racing remote join" `Quick
            test_leave_racing_remote_join;
          Alcotest.test_case "MC id reuse" `Quick test_mc_id_reuse_across_incarnations;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "proposals carry member snapshots" `Quick
            test_snapshot_carried_on_proposals;
        ] );
      ( "resync",
        [
          Alcotest.test_case "heal without new events" `Quick
            test_heal_without_new_events;
          Alcotest.test_case "heal with changes on both sides" `Quick
            test_heal_with_membership_changes_during_partition;
          Alcotest.test_case "heal with leave during partition" `Quick
            test_heal_with_leave_during_partition;
          Alcotest.test_case "no-op on consistent network" `Quick
            test_resync_noop_when_consistent;
          Alcotest.test_case "direct resync pull" `Quick test_direct_resync_call;
        ] );
      ( "tie-break",
        [
          Alcotest.test_case "order independence" `Quick
            test_equal_stamp_tiebreak_is_order_independent;
        ] );
    ]
