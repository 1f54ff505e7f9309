(* Unit tests for the D-GMC building blocks (lib/core): vector
   timestamps, identifiers, member lists, LSAs, configuration and the
   topology-computation entry point. *)

let check = Alcotest.check

let ts = Oracle.Timestamp.of_array

let stamp_t = Alcotest.testable Dgmc.Timestamp.pp Dgmc.Timestamp.equal

(* ------------------------------------------------------------------ *)
(* Timestamp *)

let test_stamp_zero () =
  let z = Dgmc.Timestamp.zero 4 in
  check Alcotest.int "size" 4 (Dgmc.Timestamp.size z);
  for i = 0 to 3 do
    check Alcotest.int "component" 0 (Dgmc.Timestamp.get z i)
  done;
  check Alcotest.int "sum" 0 (Oracle.Timestamp.sum z)

let test_stamp_bump () =
  let z = Dgmc.Timestamp.zero 3 in
  let b = Oracle.Timestamp.bump z 1 in
  check stamp_t "bumped" (ts [| 0; 1; 0 |]) b;
  check stamp_t "original untouched" (ts [| 0; 0; 0 |]) z;
  check Alcotest.int "sum" 1 (Oracle.Timestamp.sum b)

let test_stamp_merge () =
  let a = ts [| 1; 5; 0 |] and b = ts [| 3; 2; 0 |] in
  check stamp_t "pointwise max" (ts [| 3; 5; 0 |]) (Dgmc.Timestamp.merge a b)

let test_stamp_order () =
  let a = ts [| 1; 2 |] and b = ts [| 1; 1 |] and c = ts [| 0; 3 |] in
  check Alcotest.bool "geq reflexive" true (Dgmc.Timestamp.geq a a);
  check Alcotest.bool "a >= b" true (Dgmc.Timestamp.geq a b);
  check Alcotest.bool "b >= a fails" false (Dgmc.Timestamp.geq b a);
  check Alcotest.bool "a > b" true (Dgmc.Timestamp.gt a b);
  check Alcotest.bool "not a > a" false (Dgmc.Timestamp.gt a a);
  check Alcotest.bool "concurrent" false
    (Dgmc.Timestamp.geq a c || Dgmc.Timestamp.geq c a)

let test_stamp_validation () =
  Alcotest.check_raises "zero size"
    (Invalid_argument "Timestamp.zero: size must be positive") (fun () ->
      ignore (Dgmc.Timestamp.zero 0));
  Alcotest.check_raises "negative component"
    (Invalid_argument "Timestamp.of_array: negative") (fun () ->
      ignore (ts [| 1; -1 |]));
  Alcotest.check_raises "size mismatch" (Invalid_argument "Timestamp: size mismatch")
    (fun () -> ignore (Dgmc.Timestamp.merge (Dgmc.Timestamp.zero 2) (Dgmc.Timestamp.zero 3)));
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Timestamp.get: out of range") (fun () ->
      ignore (Dgmc.Timestamp.get (Dgmc.Timestamp.zero 2) 2))

let test_stamp_to_array_copies () =
  let a = ts [| 1; 2 |] in
  let arr = Dgmc.Timestamp.to_array a in
  arr.(0) <- 99;
  check Alcotest.int "immutability preserved" 1 (Dgmc.Timestamp.get a 0)

(* A stamp costs its nonzero components, not n: at n = 100_000 with at
   most four counting switches, each operation allocates a few words. *)
let test_stamp_sparse_at_scale () =
  let n = 100_000 in
  let module T = Oracle.Timestamp in
  let z = T.zero n in
  let a = T.bump (T.bump (T.raise_to z 99_999 3) 7) 50_000 in
  let b = T.raise_to (T.bump z 12) 50_000 5 in
  let cheap label f =
    let w = Alloc.words_allocated f in
    if w >= 64. then
      Alcotest.failf "%s allocated %d words at n = %d (limit 64)" label
        (int_of_float w) n
  in
  cheap "bump" (fun () -> T.bump a 3);
  cheap "raise_to" (fun () -> T.raise_to a 7 9);
  cheap "merge" (fun () -> T.merge a b);
  cheap "geq" (fun () -> T.geq a b);
  check Alcotest.int "bump" 1 (T.get (T.bump a 3) 3);
  check Alcotest.int "raise_to" 9 (T.get (T.raise_to a 7 9) 7);
  let m = T.merge a b in
  check
    Alcotest.(list (pair int int))
    "merge"
    [ (7, 1); (12, 1); (50_000, 5); (99_999, 3) ]
    (List.filter_map
       (fun x -> if T.get m x > 0 then Some (x, T.get m x) else None)
       [ 3; 7; 12; 50_000; 99_999 ]);
  check Alcotest.bool "geq" false (T.geq a b);
  check Alcotest.int "sum" 10 (T.sum m)

(* The in-place operations write an owned stamp that has room, copy a
   frozen one, and adopt a dominating merge argument. *)
let test_stamp_owned_in_place () =
  let module T = Oracle.Timestamp in
  let z = T.zero 4 in
  let a = T.bump_owned z 1 in
  check Alcotest.bool "a frozen zero is copied" false (a == z);
  check stamp_t "the zero is untouched" (T.zero 4) z;
  check Alcotest.bool "an owned stamp is written in place" true
    (T.bump_owned a 1 == a);
  let shared = T.freeze a in
  let c = T.raise_owned shared 2 5 in
  check Alcotest.bool "a frozen stamp is copied" false (c == shared);
  check stamp_t "the frozen stamp is untouched" (ts [| 0; 2; 0; 0 |]) shared;
  check stamp_t "the copy is updated" (ts [| 0; 2; 5; 0 |]) c;
  check Alcotest.bool "a dominated argument writes nothing" true
    (T.merge_owned c (ts [| 0; 1; 0; 0 |]) == c);
  let d = ts [| 1; 2; 5; 3 |] in
  check Alcotest.bool "a dominating argument is adopted" true
    (T.merge_owned c d == d);
  check Alcotest.bool "an owned merge is written in place" true
    (T.merge_owned c (ts [| 1; 0; 0; 0 |]) == c);
  check stamp_t "merged" (ts [| 1; 2; 5; 0 |]) c

let test_mc_state_create_is_constant () =
  let n = 100_000 in
  let w = Alloc.words_allocated (fun () -> Dgmc.Mc_state.create ~n) in
  if w >= 64. then
    Alcotest.failf "Mc_state.create ~n:%d allocated %d words (limit 64)" n
      (int_of_float w)

(* ReceiveLSA on its common path: one in-order event LSA reaches an idle
   switch whose owned stamps have room.  R and membership_seen are
   raised in place, E adopts the LSA's stamp (it dominates), and the
   member list copies its one array; the MC keeps members, so the
   deletion check stops before its table lookup.  What is left is the
   member copy (the measured total on OCaml 5.1), bounded with 2 words
   to spare.  The first LSA is not timed: it gives the state its owned
   stamps. *)
let test_receive_event_allocation () =
  let module T = Oracle.Timestamp in
  let engine = Sim.Engine.create () in
  let sw =
    Dgmc.Switch.create ~id:0 ~n:6 ~config:Dgmc.Config.atm_lan ~engine
      ~boot:(Lsr.Lsdb.boot (Net.Topo_gen.grid ~rows:2 ~cols:3))
  in
  Dgmc.Switch.connect sw ignore;
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
  let join src stamp =
    Dgmc.Switch.Mc
      (Dgmc.Mc_lsa.make ~src ~event:(Dgmc.Mc_lsa.Join Dgmc.Member.Both) ~mc
         ~stamp:(T.of_array stamp) ())
  in
  Dgmc.Switch.deliver sw (join 1 [| 0; 1; 0; 0; 0; 0 |]);
  let second = join 2 [| 0; 1; 1; 0; 0; 0 |] in
  let w = Alloc.words_allocated (fun () -> Dgmc.Switch.deliver sw second) in
  let members = Option.get (Dgmc.Switch.members sw mc) in
  check Alcotest.(list int) "both joins applied" [ 1; 2 ] (Dgmc.Member.ids members);
  let r, e, _ = Option.get (Dgmc.Switch.stamps sw mc) in
  check stamp_t "R counts both" (ts [| 0; 1; 1; 0; 0; 0 |]) r;
  check stamp_t "E adopted the stamp" (ts [| 0; 1; 1; 0; 0; 0 |]) e;
  let bound = 1 + Dgmc.Member.cardinal members + 2 in
  if w > float_of_int bound then
    Alcotest.failf "an in-order event LSA allocated %d words (bound %d)"
      (int_of_float w) bound

(* ReceiveLSA on the shape most deliveries of the normal_wan benchmark
   workload take: an in-order event LSA that carries its sender's
   proposal and member snapshot (Figure 4 lines 7-10 flood them with the
   event), reaching an idle switch whose owned stamps have room.  T >= E
   is decided once and reused: E adopts the stamp, R and membership_seen
   are raised in place and then already equal it, so the snapshot's
   merges return them unwritten, and no stamp is copied.  The member
   list copies its one array for the join, the snapshot equals it and
   is not adopted, and the proposal is installed; the installation's
   check for a dead incident link walks the switch's row of links
   without a closure.  What is left is the member copy (1 + 2 words): 3
   words in both dune profiles on OCaml 5.1, pinned without slack, so a
   stamp copy (a record and an array, at least 8 words) or a closure
   cannot come back unseen.  The first LSA is not timed: it gives the
   state its owned stamps and caches the switch's row of links. *)
let test_receive_event_proposal_allocation () =
  let module T = Oracle.Timestamp in
  let engine = Sim.Engine.create () in
  let sw =
    Dgmc.Switch.create ~id:0 ~n:6 ~config:Dgmc.Config.atm_lan ~engine
      ~boot:(Lsr.Lsdb.boot (Net.Topo_gen.grid ~rows:2 ~cols:3))
  in
  Dgmc.Switch.connect sw ignore;
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
  let join src ~tree ~members stamp =
    Dgmc.Switch.Mc
      (Dgmc.Mc_lsa.make ~src ~event:(Dgmc.Mc_lsa.Join Dgmc.Member.Both) ~mc
         ~proposal:tree
         ~members:
           (Dgmc.Member.of_list
              (List.map (fun id -> (id, Dgmc.Member.Both)) members))
         ~stamp:(T.of_array stamp) ())
  in
  Dgmc.Switch.deliver sw
    (join 1 ~tree:(Mctree.Tree.of_terminals [ 1 ]) ~members:[ 1 ]
       [| 0; 1; 0; 0; 0; 0 |]);
  let tree = Mctree.Tree.of_edges ~terminals:[ 1; 2 ] [ (1, 2) ] in
  let second = join 2 ~tree ~members:[ 1; 2 ] [| 0; 1; 1; 0; 0; 0 |] in
  let w = Alloc.words_allocated (fun () -> Dgmc.Switch.deliver sw second) in
  check Alcotest.(list int) "both joins applied" [ 1; 2 ]
    (Dgmc.Member.ids (Option.get (Dgmc.Switch.members sw mc)));
  check Alcotest.int "both proposals installed" 2
    (Dgmc.Switch.stats sw).proposals_accepted;
  check Alcotest.bool "the tree is installed" true
    (Mctree.Tree.equal tree (Option.get (Dgmc.Switch.topology sw mc)));
  let r, e, _ = Option.get (Dgmc.Switch.stamps sw mc) in
  check stamp_t "R counts both" (ts [| 0; 1; 1; 0; 0; 0 |]) r;
  check stamp_t "E adopted the stamp" (ts [| 0; 1; 1; 0; 0; 0 |]) e;
  let bound = 3 in
  if w > float_of_int bound then
    Alcotest.failf "an in-order proposal LSA allocated %d words (bound %d)"
      (int_of_float w) bound

(* ReceiveLSA accepting a proposal as the invocation's candidate and
   not installing it: the LSA repeats the installed proposal, so its
   stamp ties C and its tree ties the installed tree.  The candidate is
   the LSA itself, E and R merge in place, and the snapshot equals the
   member list, so nothing is allocated, in either dune profile. *)
let test_receive_candidate_allocation () =
  let module T = Oracle.Timestamp in
  let engine = Sim.Engine.create () in
  let sw =
    Dgmc.Switch.create ~id:0 ~n:6 ~config:Dgmc.Config.atm_lan ~engine
      ~boot:(Lsr.Lsdb.boot (Net.Topo_gen.grid ~rows:2 ~cols:3))
  in
  Dgmc.Switch.connect sw ignore;
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
  let stamp = [| 0; 1; 0; 0; 0; 0 |] in
  Dgmc.Switch.deliver sw
    (Dgmc.Switch.Mc
       (Dgmc.Mc_lsa.make ~src:1 ~event:(Dgmc.Mc_lsa.Join Dgmc.Member.Both) ~mc
          ~stamp:(T.of_array stamp) ()));
  let tree = Mctree.Tree.of_terminals [ 1 ] in
  let proposal =
    Dgmc.Switch.Mc
      (Dgmc.Mc_lsa.make ~src:1 ~event:Dgmc.Mc_lsa.No_event ~mc ~proposal:tree
         ~members:(Option.get (Dgmc.Switch.members sw mc))
         ~stamp:(T.of_array stamp) ())
  in
  Dgmc.Switch.deliver sw proposal;
  let accepted () = (Dgmc.Switch.stats sw).proposals_accepted in
  check Alcotest.int "the first copy is installed" 1 (accepted ());
  let w = Alloc.words_allocated (fun () -> Dgmc.Switch.deliver sw proposal) in
  check Alcotest.int "the repeat is not installed" 1 (accepted ());
  check Alcotest.bool "the tree stays" true
    (Mctree.Tree.equal tree (Option.get (Dgmc.Switch.topology sw mc)));
  if w > 0.0 then
    Alcotest.failf "a candidate not installed allocated %d words (bound 0)"
      (int_of_float w)

(* qcheck: lattice and partial-order laws. *)
let stamp_gen =
  QCheck2.Gen.(
    map
      (fun l -> ts (Array.of_list l))
      (list_size (int_range 1 8) (int_range 0 5)))

let stamp_pair_gen =
  QCheck2.Gen.(
    bind (int_range 1 8) (fun size ->
        let component = int_range 0 5 in
        let one = map (fun l -> ts (Array.of_list l)) (list_size (return size) component) in
        pair one one))

let stamp_triple_gen =
  QCheck2.Gen.(
    bind (int_range 1 8) (fun size ->
        let component = int_range 0 5 in
        let one = map (fun l -> ts (Array.of_list l)) (list_size (return size) component) in
        triple one one one))

let prop_merge_commutative =
  QCheck2.Test.make ~name:"merge commutative" ~count:200 stamp_pair_gen
    (fun (a, b) ->
      Dgmc.Timestamp.equal (Dgmc.Timestamp.merge a b) (Dgmc.Timestamp.merge b a))

let prop_merge_associative =
  QCheck2.Test.make ~name:"merge associative" ~count:200 stamp_triple_gen
    (fun (a, b, c) ->
      Dgmc.Timestamp.equal
        (Dgmc.Timestamp.merge a (Dgmc.Timestamp.merge b c))
        (Dgmc.Timestamp.merge (Dgmc.Timestamp.merge a b) c))

let prop_merge_idempotent =
  QCheck2.Test.make ~name:"merge idempotent" ~count:200 stamp_gen (fun a ->
      Dgmc.Timestamp.equal (Dgmc.Timestamp.merge a a) a)

let prop_merge_is_lub =
  QCheck2.Test.make ~name:"merge is an upper bound" ~count:200 stamp_pair_gen
    (fun (a, b) ->
      let m = Dgmc.Timestamp.merge a b in
      Dgmc.Timestamp.geq m a && Dgmc.Timestamp.geq m b)

let prop_geq_antisymmetric =
  QCheck2.Test.make ~name:"geq antisymmetric" ~count:200 stamp_pair_gen
    (fun (a, b) ->
      if Dgmc.Timestamp.geq a b && Dgmc.Timestamp.geq b a then
        Dgmc.Timestamp.equal a b
      else true)

let prop_geq_transitive =
  QCheck2.Test.make ~name:"geq transitive" ~count:200 stamp_triple_gen
    (fun (a, b, c) ->
      if Dgmc.Timestamp.geq a b && Dgmc.Timestamp.geq b c then
        Dgmc.Timestamp.geq a c
      else true)

let prop_bump_strictly_increases =
  QCheck2.Test.make ~name:"bump strictly increases" ~count:200 stamp_gen
    (fun a ->
      let i = Dgmc.Timestamp.size a - 1 in
      Dgmc.Timestamp.gt (Oracle.Timestamp.bump a i) a)

(* ------------------------------------------------------------------ *)
(* Mc_id *)

let test_mc_id () =
  let a = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
  let b = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
  let c = Dgmc.Mc_id.make Dgmc.Mc_id.Asymmetric 1 in
  let d = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 2 in
  check Alcotest.bool "equal" true (Dgmc.Mc_id.equal a b);
  check Alcotest.bool "kind distinguishes" false (Dgmc.Mc_id.equal a c);
  check Alcotest.bool "id distinguishes" false (Dgmc.Mc_id.equal a d);
  let tbl = Dgmc.Mc_id.Tbl.create 4 in
  Dgmc.Mc_id.Tbl.replace tbl a ();
  check Alcotest.bool "equal ids share a table entry" true
    (Dgmc.Mc_id.Tbl.mem tbl b && not (Dgmc.Mc_id.Tbl.mem tbl c));
  check Alcotest.bool "compare orders by id first" true (Dgmc.Mc_id.compare a d < 0);
  check Alcotest.string "kind names" "receiver-only"
    (Dgmc.Mc_id.kind_to_string Dgmc.Mc_id.Receiver_only)

(* ------------------------------------------------------------------ *)
(* Member *)

let test_member_basic () =
  let m = Dgmc.Member.empty in
  check Alcotest.bool "empty" true (Dgmc.Member.is_empty m);
  let m = Dgmc.Member.join m 3 Dgmc.Member.Both in
  let m = Dgmc.Member.join m 1 Dgmc.Member.Sender in
  let m = Dgmc.Member.join m 7 Dgmc.Member.Receiver in
  check Alcotest.int "cardinal" 3 (Dgmc.Member.cardinal m);
  check Alcotest.(list int) "ids sorted" [ 1; 3; 7 ] (Dgmc.Member.ids m);
  check Alcotest.(list int) "senders" [ 1; 3 ] (Dgmc.Member.senders m);
  check Alcotest.(list int) "receivers" [ 3; 7 ] (Dgmc.Member.receivers m);
  check Alcotest.bool "mem" true (Dgmc.Member.mem m 3);
  let m = Dgmc.Member.leave m 3 in
  check Alcotest.bool "left" false (Dgmc.Member.mem m 3);
  check Alcotest.int "cardinal after leave" 2 (Dgmc.Member.cardinal m)

let test_member_role_overwrite () =
  let m = Dgmc.Member.join Dgmc.Member.empty 2 Dgmc.Member.Receiver in
  let m = Dgmc.Member.join m 2 Dgmc.Member.Both in
  check Alcotest.int "still one member" 1 (Dgmc.Member.cardinal m);
  check Alcotest.(option string) "role updated" (Some "both")
    (Option.map Dgmc.Member.role_to_string (Dgmc.Member.role m 2))

let test_member_equal () =
  let a = Dgmc.Member.of_list [ (1, Dgmc.Member.Both); (2, Dgmc.Member.Sender) ] in
  let b = Dgmc.Member.of_list [ (2, Dgmc.Member.Sender); (1, Dgmc.Member.Both) ] in
  check Alcotest.bool "order irrelevant" true (Dgmc.Member.equal a b);
  let c = Dgmc.Member.of_list [ (1, Dgmc.Member.Both); (2, Dgmc.Member.Both) ] in
  check Alcotest.bool "roles matter" false (Dgmc.Member.equal a c)

let test_member_compare () =
  let module M = Dgmc.Member in
  let sets =
    [
      M.empty;
      M.of_list [ (1, Both) ];
      M.of_list [ (1, Sender) ];
      M.of_list [ (1, Both); (2, Sender) ];
      M.of_list [ (2, Sender); (1, Both) ];
      M.of_list [ (1, Both); (2, Both) ];
      M.of_list [ (1, Both); (3, Sender) ];
      M.of_list [ (0, Receiver); (1, Both); (2, Sender) ];
    ]
  in
  let sign x = Int.compare x 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.bool "zero iff equal" (M.equal a b) (M.compare a b = 0);
          check Alcotest.int "antisymmetric" (sign (M.compare a b)) (-sign (M.compare b a));
          List.iter
            (fun c ->
              if M.compare a b <= 0 && M.compare b c <= 0 then
                check Alcotest.bool "transitive" true (M.compare a c <= 0))
            sets)
        sets)
    sets

let test_member_leave_absent () =
  let m = Dgmc.Member.of_list [ (1, Dgmc.Member.Both) ] in
  check Alcotest.bool "leave absent is noop" true
    (Dgmc.Member.equal m (Dgmc.Member.leave m 9))

(* ------------------------------------------------------------------ *)
(* Mc_lsa *)

let test_mc_lsa_predicates () =
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
  let stamp = Dgmc.Timestamp.zero 4 in
  let join = Dgmc.Mc_lsa.make ~src:0 ~event:(Dgmc.Mc_lsa.Join Dgmc.Member.Both) ~mc ~stamp () in
  let leave = Dgmc.Mc_lsa.make ~src:0 ~event:Dgmc.Mc_lsa.Leave ~mc ~stamp () in
  let link = Dgmc.Mc_lsa.make ~src:0 ~event:Dgmc.Mc_lsa.Link ~mc ~stamp () in
  let none = Dgmc.Mc_lsa.make ~src:0 ~event:Dgmc.Mc_lsa.No_event ~mc ~stamp () in
  check Alcotest.bool "join is event" true (Dgmc.Mc_lsa.is_event join);
  check Alcotest.bool "none is not" false (Dgmc.Mc_lsa.is_event none);
  check Alcotest.bool "join is membership" true (Dgmc.Mc_lsa.is_membership_event join);
  check Alcotest.bool "leave is membership" true (Dgmc.Mc_lsa.is_membership_event leave);
  check Alcotest.bool "link is not membership" false
    (Dgmc.Mc_lsa.is_membership_event link);
  check Alcotest.string "event naming" "join:both" (Dgmc.Mc_lsa.event_to_string join.event);
  check Alcotest.bool "no proposal by default" true (join.proposal = None)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_presets () =
  let atm = Dgmc.Config.atm_lan and wan = Dgmc.Config.wan in
  check Alcotest.bool "atm: computation dominates" true (atm.tc > atm.t_hop);
  check Alcotest.bool "wan: communication dominates" true (wan.t_hop > wan.tc)

let test_config_round_length () =
  let g = Net.Topo_gen.line 5 in
  (* hop diameter 4 *)
  let config = { Dgmc.Config.atm_lan with tc = 1.0; t_hop = 0.5 } in
  check Alcotest.(float 1e-9) "tf + tc" 3.0 (Dgmc.Config.round_length config ~graph:g)

(* ------------------------------------------------------------------ *)
(* Compute *)

let members_of ids role = Dgmc.Member.of_list (List.map (fun x -> (x, role)) ids)

let test_compute_empty_members () =
  let g = Net.Topo_gen.grid ~rows:3 ~cols:3 in
  let t =
    Dgmc.Compute.topology Dgmc.Config.atm_lan Dgmc.Mc_id.Symmetric g
      Dgmc.Member.empty ~self:0 ~current:None
  in
  check Alcotest.bool "empty tree" true (Mctree.Tree.equal t Mctree.Tree.empty)

let test_compute_symmetric_scratch () =
  let g = Net.Topo_gen.grid ~rows:3 ~cols:3 in
  let members = members_of [ 0; 2; 6; 8 ] Dgmc.Member.Both in
  let t =
    Dgmc.Compute.topology Dgmc.Config.atm_lan Dgmc.Mc_id.Symmetric g members
      ~self:0 ~current:None
  in
  check Alcotest.bool "valid" true (Mctree.Tree.is_valid_mc_topology g t);
  check Alcotest.bool "from scratch" true
    (Mctree.Tree.equal t (Mctree.Steiner.sph g [ 0; 2; 6; 8 ]))

let test_compute_asymmetric_root () =
  let g = Net.Topo_gen.grid ~rows:3 ~cols:3 in
  let members =
    Dgmc.Member.of_list
      [ (5, Dgmc.Member.Sender); (0, Dgmc.Member.Receiver); (7, Dgmc.Member.Receiver) ]
  in
  let t =
    Dgmc.Compute.topology Dgmc.Config.atm_lan Dgmc.Mc_id.Asymmetric g members
      ~self:0 ~current:None
  in
  check Alcotest.bool "valid" true (Mctree.Tree.is_valid_mc_topology g t);
  (* The tree is rooted at the sender: every receiver's tree path to 5
     has shortest-path cost. *)
  List.iter
    (fun (receiver, delay) ->
      check Alcotest.(float 1e-9) "spt property"
        (Oracle.Dijkstra.distance g 5 receiver)
        delay)
    (Oracle.Delivery.delays g t ~root:5)

(* On the 3x3 grid, 3 joining {0, 4} tells the two paths apart by
   value: the incremental graft keeps the tree 0-1-4 and hangs 3 off 0,
   while SPH from scratch routes through 3. *)
let test_compute_incremental_join_used () =
  let g = Net.Topo_gen.grid ~rows:3 ~cols:3 in
  let current =
    Dgmc.Compute.topology Dgmc.Config.atm_lan Dgmc.Mc_id.Symmetric g
      (members_of [ 0; 4 ] Dgmc.Member.Both)
      ~self:0 ~current:None
  in
  let t =
    Dgmc.Compute.topology Dgmc.Config.atm_lan Dgmc.Mc_id.Symmetric g
      (members_of [ 0; 3; 4 ] Dgmc.Member.Both)
      ~self:0 ~current:(Some current)
  in
  check Alcotest.(list (pair int int)) "incremental path taken"
    [ (0, 1); (0, 3); (1, 4) ] (Mctree.Tree.edges t);
  check Alcotest.bool "valid" true (Mctree.Tree.is_valid_mc_topology g t);
  check Alcotest.(list int) "terminals" [ 0; 3; 4 ]
    (Mctree.Tree.terminals t)

let test_compute_incremental_disabled () =
  let g = Net.Topo_gen.grid ~rows:3 ~cols:3 in
  let config = { Dgmc.Config.atm_lan with computation = Scratch } in
  let current =
    Dgmc.Compute.topology config Dgmc.Mc_id.Symmetric g
      (members_of [ 0; 4 ] Dgmc.Member.Both)
      ~self:0 ~current:None
  in
  let t =
    Dgmc.Compute.topology config Dgmc.Mc_id.Symmetric g
      (members_of [ 0; 3; 4 ] Dgmc.Member.Both)
      ~self:0 ~current:(Some current)
  in
  check Alcotest.(list (pair int int)) "scratch when disabled"
    [ (0, 3); (3, 4) ] (Mctree.Tree.edges t)

let test_compute_leave_and_repair () =
  let g = Net.Topo_gen.grid ~rows:3 ~cols:3 in
  let members = members_of [ 0; 2; 8 ] Dgmc.Member.Both in
  let current =
    Dgmc.Compute.topology Dgmc.Config.atm_lan Dgmc.Mc_id.Symmetric g members
      ~self:0 ~current:None
  in
  (* Kill a tree link and drop one member at the same time. *)
  let u, v = List.hd (Mctree.Tree.edges current) in
  Net.Graph.set_link g u v ~up:false;
  let t =
    Dgmc.Compute.topology Dgmc.Config.atm_lan Dgmc.Mc_id.Symmetric g
      (members_of [ 0; 2 ] Dgmc.Member.Both)
      ~self:0 ~current:(Some current)
  in
  check Alcotest.bool "valid after repair+leave" true
    (Mctree.Tree.is_valid_mc_topology g t);
  check Alcotest.(list int) "terminals shrank" [ 0; 2 ]
    (Mctree.Tree.terminals t)

let test_compute_partition_fallback () =
  (* Members on both sides of a cut: the computation covers the side of
     the smallest member instead of failing. *)
  let g = Oracle.Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let t =
    Dgmc.Compute.topology Dgmc.Config.atm_lan Dgmc.Mc_id.Symmetric g
      (members_of [ 0; 1; 3 ] Dgmc.Member.Both)
      ~self:0 ~current:None
  in
  check Alcotest.(list int) "reachable side covered" [ 0; 1 ]
    (Mctree.Tree.terminals t);
  check Alcotest.bool "still a tree" true (Mctree.Tree.is_tree t)

(* One incremental join on an intact tree: a member joins a symmetric
   MC whose SPH tree spans 12 of a 100-switch Waxman graph's switches.
   The first call fills the graph's shortest-path memo and is not
   timed; the timed repeat costs the incremental path itself: the
   intact-tree repair, the graft, two validity checks and the drift
   check, which builds the fresh SPH tree it prices.  With trees as two
   sorted arrays it measures 1,582 words in the dev profile and 1,577
   in release on OCaml 5.1 (no float crosses a module boundary on this
   path, so the profiles agree), and the bound is 1.2x that; the
   map-backed tree measured 1,670 and 1,665. *)
let test_compute_incremental_join_allocation () =
  let g = Net.Topo_gen.waxman (Sim.Rng.create 7) ~n:100 in
  let ids = List.init 13 (fun i -> (i * 37) mod 100) in
  let joiner = List.hd ids and old_ids = List.tl ids in
  let current = Mctree.Steiner.sph g old_ids in
  let members = members_of ids Dgmc.Member.Both in
  let join () =
    Dgmc.Compute.topology Dgmc.Config.atm_lan Dgmc.Mc_id.Symmetric g members
      ~self:joiner ~current:(Some current)
  in
  let first = join () in
  let w = Alloc.words_allocated join in
  check Alcotest.bool "the joiner is grafted" false
    (Mctree.Tree.mem_node current joiner);
  check Alcotest.bool "the incremental tree is kept" true
    (Mctree.Tree.equal first (Mctree.Incremental.join g current joiner));
  if w > 1_900. then
    Alcotest.failf "an incremental join allocated %d words (bound 1900)"
      (int_of_float w)

(* The drift check on the same graph and a fresh 13-member SPH tree,
   after one untimed call fills the shortest-path memo.  It builds the
   fresh tree, two arrays, so that a computation past the threshold can
   install it, and measures 813 words in both profiles; pricing the
   kernel's edge buffer without building a tree measured 730, and the
   list-based attach loop it replaced 5,719.  The bound stays 880. *)
let test_drift_check_allocation () =
  let g = Net.Topo_gen.waxman (Sim.Rng.create 7) ~n:100 in
  let tree = Mctree.Steiner.sph g (List.init 13 (fun i -> (i * 37) mod 100)) in
  let drift () = Mctree.Incremental.recompute ~threshold:1.5 g tree in
  check Alcotest.bool "a fresh tree does not drift" true (Option.is_none (drift ()));
  let w = Alloc.words_allocated drift in
  if w > 880. then
    Alcotest.failf "a drift check allocated %d words (bound 880)"
      (int_of_float w)

(* Past the drift threshold the drift check's fresh tree is installed:
   the incremental path returns the tree a computation from scratch
   returns, and SPH runs once, in the drift check.  SPH is within twice
   the optimum, so no drift is below 0.5, and a threshold of 0.25 sends
   every incremental computation past it. *)
let test_compute_past_threshold () =
  let g = Net.Topo_gen.waxman (Sim.Rng.create 7) ~n:100 in
  let ids = List.init 13 (fun i -> (i * 37) mod 100) in
  let current = Mctree.Steiner.sph g (List.tl ids) in
  let members = members_of ids Dgmc.Member.Both in
  let config =
    { Dgmc.Config.atm_lan with computation = Incremental { drift = 0.25 } }
  in
  let topology current =
    Dgmc.Compute.topology config Dgmc.Mc_id.Symmetric g members
      ~self:(List.hd ids) ~current
  in
  let scratch = topology None in
  let phase = Metrics.Phase.create () in
  let t = Oracle.Phase.with_ambient phase (fun () -> topology (Some current)) in
  let tree_t = Alcotest.testable Mctree.Tree.pp Mctree.Tree.equal in
  check tree_t "the scratch tree" scratch t;
  check Alcotest.bool "not the incremental join" false
    (Mctree.Tree.equal t (Mctree.Incremental.join g current (List.hd ids)));
  let calls =
    List.fold_left
      (fun acc (r : Metrics.Phase.row) ->
        if String.equal r.r_name "mctree.sph" then acc + r.r_calls else acc)
      0 (Metrics.Phase.snapshot phase)
  in
  check Alcotest.int "mctree.sph calls" 1 calls

let () =
  Alcotest.run "dgmc-unit"
    [
      ( "timestamp",
        [
          Alcotest.test_case "zero" `Quick test_stamp_zero;
          Alcotest.test_case "bump" `Quick test_stamp_bump;
          Alcotest.test_case "merge" `Quick test_stamp_merge;
          Alcotest.test_case "ordering" `Quick test_stamp_order;
          Alcotest.test_case "validation" `Quick test_stamp_validation;
          Alcotest.test_case "to_array copies" `Quick test_stamp_to_array_copies;
          Alcotest.test_case "sparse at n = 100000" `Quick test_stamp_sparse_at_scale;
          Alcotest.test_case "owned stamps update in place" `Quick
            test_stamp_owned_in_place;
          Alcotest.test_case "mc state create is O(1)" `Quick
            test_mc_state_create_is_constant;
          Alcotest.test_case "in-order event LSA allocation bound" `Quick
            test_receive_event_allocation;
          Alcotest.test_case "in-order proposal LSA allocation bound" `Quick
            test_receive_event_proposal_allocation;
          Alcotest.test_case "candidate not installed allocates nothing" `Quick
            test_receive_candidate_allocation;
          QCheck_alcotest.to_alcotest prop_merge_commutative;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_merge_idempotent;
          QCheck_alcotest.to_alcotest prop_merge_is_lub;
          QCheck_alcotest.to_alcotest prop_geq_antisymmetric;
          QCheck_alcotest.to_alcotest prop_geq_transitive;
          QCheck_alcotest.to_alcotest prop_bump_strictly_increases;
        ] );
      ("mc-id", [ Alcotest.test_case "identity" `Quick test_mc_id ]);
      ( "member",
        [
          Alcotest.test_case "basics" `Quick test_member_basic;
          Alcotest.test_case "role overwrite" `Quick test_member_role_overwrite;
          Alcotest.test_case "equality" `Quick test_member_equal;
          Alcotest.test_case "total order" `Quick test_member_compare;
          Alcotest.test_case "leave absent" `Quick test_member_leave_absent;
        ] );
      ("mc-lsa", [ Alcotest.test_case "predicates" `Quick test_mc_lsa_predicates ]);
      ( "config",
        [
          Alcotest.test_case "presets" `Quick test_config_presets;
          Alcotest.test_case "round length" `Quick test_config_round_length;
        ] );
      ( "compute",
        [
          Alcotest.test_case "empty members" `Quick test_compute_empty_members;
          Alcotest.test_case "symmetric from scratch" `Quick
            test_compute_symmetric_scratch;
          Alcotest.test_case "asymmetric rooted at sender" `Quick
            test_compute_asymmetric_root;
          Alcotest.test_case "incremental join used" `Quick
            test_compute_incremental_join_used;
          Alcotest.test_case "incremental disabled" `Quick
            test_compute_incremental_disabled;
          Alcotest.test_case "leave and repair" `Quick test_compute_leave_and_repair;
          Alcotest.test_case "partition fallback" `Quick
            test_compute_partition_fallback;
          Alcotest.test_case "incremental join allocation bound" `Quick
            test_compute_incremental_join_allocation;
          Alcotest.test_case "drift check allocation bound" `Quick
            test_drift_check_allocation;
          Alcotest.test_case "past the drift threshold SPH runs once" `Quick
            test_compute_past_threshold;
        ] );
    ]
