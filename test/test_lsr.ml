(* Tests for the link-state routing substrate (lib/lsr): LSA envelopes,
   flooding and the link-state database. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Lsa *)

let test_lsa_identity () =
  let lsa = Lsr.Lsa.make ~origin:3 ~seq:7 "payload" in
  check Alcotest.(pair int int) "id" (3, 7) (lsa.origin, lsa.seq);
  check Alcotest.string "payload" "payload" lsa.payload

let test_lsa_seq_counter () =
  let c = Lsr.Lsa.Seq.create () in
  check Alcotest.(list int) "monotone from zero" [ 0; 1; 2; 3 ]
    (List.init 4 (fun _ -> Lsr.Lsa.Seq.next c));
  let c2 = Lsr.Lsa.Seq.create () in
  check Alcotest.int "independent counters" 0 (Lsr.Lsa.Seq.next c2)

(* ------------------------------------------------------------------ *)
(* Flooding *)

type received = { switch : int; time : float }

let flood_once graph ~origin ~t_hop =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let deliver ~switch _lsa =
    log := { switch; time = Sim.Engine.now engine } :: !log
  in
  let f = Lsr.Flooding.create ~engine ~graph ~t_hop ~deliver () in
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin ~seq:0 ());
  Sim.Engine.run engine;
  (f, List.rev !log)

let test_flooding_reaches_everyone_once () =
  let g = Net.Topo_gen.ring 8 in
  let _, log = flood_once g ~origin:0 ~t_hop:1.0 in
  let receivers = List.map (fun r -> r.switch) log in
  check Alcotest.int "everyone but origin" 7
    (List.length (List.sort_uniq Int.compare receivers));
  check Alcotest.int "no duplicates" (List.length receivers)
    (List.length (List.sort_uniq Int.compare receivers));
  check Alcotest.bool "origin not delivered" true (not (List.mem 0 receivers))

let test_flooding_arrival_times_are_hops () =
  let g = Net.Topo_gen.ring 8 in
  let _, log = flood_once g ~origin:0 ~t_hop:2.0 in
  let hops = Oracle.Bfs.hops g 0 in
  List.iter
    (fun r ->
      check Alcotest.(float 1e-9) "arrival = hops * t_hop"
        (2.0 *. float_of_int hops.(r.switch))
        r.time)
    log

let test_flooding_counters () =
  let g = Net.Topo_gen.line 4 in
  let f, _ = flood_once g ~origin:0 ~t_hop:1.0 in
  check Alcotest.int "one flood" 1 (Lsr.Flooding.floods_started f);
  (* Line 0-1-2-3: 0 sends 1 msg; 1 forwards 1; 2 forwards 1 => 3. *)
  check Alcotest.int "messages" 3 (Lsr.Flooding.messages_sent f)

let test_flooding_ring_message_count () =
  (* On a ring every switch forwards once except where duplicates meet;
     total transmissions = 2 per... measure against the known value for
     a 6-ring: origin sends 2; each of the first-wave switches forwards
     1 onward; the two waves cross.  The exact count is 6 or 7 depending
     on parity; assert the bound instead. *)
  let g = Net.Topo_gen.ring 6 in
  let f, _ = flood_once g ~origin:0 ~t_hop:1.0 in
  let m = Lsr.Flooding.messages_sent f in
  if m < 6 || m > 8 then Alcotest.failf "unexpected ring message count %d" m

let test_flooding_partition () =
  let g = Net.Topo_gen.line 5 in
  Net.Graph.set_link g 2 3 ~up:false;
  let _, log = flood_once g ~origin:0 ~t_hop:1.0 in
  let receivers = List.sort Int.compare (List.map (fun r -> r.switch) log) in
  check Alcotest.(list int) "only the near side" [ 1; 2 ] receivers

let test_flooding_link_fails_mid_flood () =
  (* The link 1-2 dies while the LSA is in flight on it: delivery to the
     far side must not happen through that link. *)
  let g = Net.Topo_gen.line 3 in
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let deliver ~switch _ = log := switch :: !log in
  let f = Lsr.Flooding.create ~engine ~graph:g ~t_hop:2.0 ~deliver () in
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  (* At t=1 the LSA is between 0 and 1 (arrives at 1 at t=2, would be
     forwarded to 2 arriving at t=4); kill 1-2 at t=3. *)
  ignore
    (Sim.Engine.schedule engine ~delay:3.0 (fun () ->
         Net.Graph.set_link g 1 2 ~up:false));
  Sim.Engine.run engine;
  check Alcotest.(list int) "switch 2 never receives" [ 1 ] !log

let test_flooding_duplicate_lsa_ignored () =
  let g = Net.Topo_gen.complete 4 in
  let engine = Sim.Engine.create () in
  let count = ref 0 in
  let deliver ~switch:_ _ = incr count in
  let f = Lsr.Flooding.create ~engine ~graph:g ~t_hop:1.0 ~deliver () in
  let lsa = Lsr.Lsa.make ~origin:0 ~seq:0 () in
  Lsr.Flooding.flood f lsa;
  Lsr.Flooding.flood f lsa;
  Sim.Engine.run engine;
  (* The same (origin, seq) flooded twice is suppressed everywhere. *)
  check Alcotest.int "delivered once per switch" 3 !count

let test_flood_diameter () =
  let g = Net.Topo_gen.line 5 in
  check Alcotest.(float 1e-9) "diameter time" 8.0
    (Lsr.Flooding.flood_diameter ~graph:g ~t_hop:2.0)

let test_flooding_rejects_bad_t_hop () =
  let g = Net.Topo_gen.line 3 in
  Alcotest.check_raises "t_hop <= 0"
    (Invalid_argument "Flooding.create: t_hop must be positive") (fun () ->
      ignore
        (Lsr.Flooding.create ~engine:(Sim.Engine.create ()) ~graph:g ~t_hop:0.0
           ~deliver:(fun ~switch:_ _ -> ())
           ()))

(* Flooding checks what the duplicate check indexes by: an origin is a
   switch and a sequence number is at least 0. *)
let test_flooding_rejects_bad_lsa () =
  let g = Net.Topo_gen.line 3 in
  let f =
    Lsr.Flooding.create ~engine:(Sim.Engine.create ()) ~graph:g ~t_hop:1.0
      ~deliver:(fun ~switch:_ _ -> ())
      ()
  in
  Alcotest.check_raises "origin out of range"
    (Invalid_argument "Flooding.flood: origin 3 is not a switch") (fun () ->
      Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:3 ~seq:0 ()));
  Alcotest.check_raises "negative seq"
    (Invalid_argument "Flooding.send: negative sequence number") (fun () ->
      Lsr.Flooding.send f ~src:0 ~dst:1 (Lsr.Lsa.make ~origin:0 ~seq:(-1) ()))

(* Minor words per message of an untraced flood from every switch of a
   100-switch graph, with no [transmit] hook.  The first flood from each
   origin is not timed: it makes the origin's duplicate-check rows and
   the in-flight table's slots, and grows the calendar, all of which
   later floods reuse. *)
let flood_words_per_message mode =
  let n = 100 in
  let g = Net.Topo_gen.waxman (Sim.Rng.create 7) ~n in
  let engine = Sim.Engine.create () in
  let f =
    Lsr.Flooding.create ~engine ~graph:g ~t_hop:1.0 ~mode
      ~deliver:(fun ~switch:_ _ -> ())
      ()
  in
  let flood_all seq =
    for origin = 0 to n - 1 do
      Lsr.Flooding.flood f (Lsr.Lsa.make ~origin ~seq ());
      Sim.Engine.run engine
    done
  in
  flood_all 0;
  let sent = Lsr.Flooding.messages_sent f in
  let before = Gc.minor_words () in
  flood_all 1;
  let words = Gc.minor_words () -. before in
  let messages = Lsr.Flooding.messages_sent f - sent in
  (words /. float_of_int messages, messages)

(* An untraced hop-by-hop message is posted to the calendar with its
   in-flight slot's id, and forwarding walks the sorted row with a plain
   recursion, so a hop allocates nothing where [Sim.Engine.post] is
   inlined and its boxed delay in dune's dev profile; the clock is
   re-boxed when an arrival moves it.  A reliable message's transfer
   takes a slot in the transfer table and its retransmit timer is a
   post of the transfer's token; its ack is a posted slot too. *)
let test_flooding_allocation_bound () =
  List.iter
    (fun (mode, name, bound) ->
      let words, messages = flood_words_per_message mode in
      if words > bound then
        (* dgmc-analyze: allow float-format — test failure message *)
        Alcotest.failf "%s: %.1f minor words per message over %d messages \
                        (bound %.0f)"
          name words messages bound)
    [
      (Lsr.Flooding.Hop_by_hop, "hop-by-hop", 32.0);
      (Lsr.Flooding.Reliable, "reliable", 90.0);
    ]

(* The hop-by-hop case above at its real cost, where [Sim.Engine.post]
   is inlined into the flooding layer (the ledger's release build).  In
   dune's dev profile each copy's delay is boxed to cross the call, two
   words. *)
let test_flood_hop_allocation () =
  let words, messages = flood_words_per_message Lsr.Flooding.Hop_by_hop in
  let bound = if Alloc.cross_module_inlining then 2.0 else 4.0 in
  if words > bound then
    (* dgmc-analyze: allow float-format — test failure message *)
    Alcotest.failf "%.2f minor words per message over %d messages (bound %.0f)"
      words messages bound

(* Words (direct-major included) and messages of the first flood of
   every origin but origin 0 on the graph of [flood_words_per_message],
   the floods it leaves untimed.  Origin 0's flood, not counted, grows
   the in-flight table and the calendar first. *)
let first_flood_words mode =
  let n = 100 in
  let g = Net.Topo_gen.waxman (Sim.Rng.create 7) ~n in
  let engine = Sim.Engine.create () in
  let f =
    Lsr.Flooding.create ~engine ~graph:g ~t_hop:1.0 ~mode
      ~deliver:(fun ~switch:_ _ -> ())
      ()
  in
  let flood origin =
    Lsr.Flooding.flood f (Lsr.Lsa.make ~origin ~seq:0 ());
    Sim.Engine.run engine
  in
  flood 0;
  let sent = Lsr.Flooding.messages_sent f in
  let words =
    Alloc.words_allocated (fun () ->
        for origin = 1 to n - 1 do
          flood origin
        done)
  in
  (n, words, Lsr.Flooding.messages_sent f - sent)

(* An origin's first flood makes its two duplicate-check rows, one int
   and one gap list per switch ([n + 1] words each); its messages cost
   what a later flood's do, the per-message allowance of the bounds
   above.  A per-receipt record would cost several words per switch on
   top. *)
let test_first_flood_allocation () =
  List.iter
    (fun (mode, name, allowance) ->
      let n, words, messages = first_flood_words mode in
      let rows = (n - 1) * 2 * (n + 1) in
      let bound = float_of_int rows +. (allowance *. float_of_int messages) in
      if words > bound then
        (* dgmc-analyze: allow float-format — test failure message *)
        Alcotest.failf
          "%s: %.0f words over %d first floods of %d messages (bound %.0f)"
          name words (n - 1) messages bound)
    [
      ( Lsr.Flooding.Hop_by_hop,
        "hop-by-hop",
        if Alloc.cross_module_inlining then 2.0 else 4.0 );
      (Lsr.Flooding.Reliable, "reliable", 90.0);
    ]

(* ------------------------------------------------------------------ *)
(* Lsdb *)

(* Every image is isolated from the ground truth and from every other
   switch's image, although databases booted together share one graph
   until they diverge. *)
let test_lsdb_isolated_copy () =
  let g = Net.Topo_gen.line 3 in
  let boot = Lsr.Lsdb.boot g in
  let a = Lsr.Lsdb.create boot and b = Lsr.Lsdb.create boot in
  (* The ground truth is not the boot image. *)
  Net.Graph.set_link g 0 1 ~up:false;
  check Alcotest.bool "image unaffected by real graph" true
    (Net.Graph.link_is_up (Lsr.Lsdb.graph a) 0 1);
  check Alcotest.bool "databases booted together share one image" true
    (Lsr.Lsdb.graph a == Lsr.Lsdb.graph b);
  (* A version-only apply (the link is already up) keeps sharing. *)
  Lsr.Lsdb.apply a { u = 1; v = 2; up = true; version = 1 };
  check Alcotest.bool "version-only apply keeps the shared image" true
    (Lsr.Lsdb.graph a == Lsr.Lsdb.graph b);
  check Alcotest.int "version-only apply recorded" 1
    (Lsr.Lsdb.version a ~u:1 ~v:2);
  (* A flip copies first: the sibling and the boot image stay put. *)
  Lsr.Lsdb.apply a { u = 0; v = 1; up = false; version = 1 };
  check Alcotest.bool "flip applied" false
    (Net.Graph.link_is_up (Lsr.Lsdb.graph a) 0 1);
  check Alcotest.bool "flip took a private image" false
    (Lsr.Lsdb.graph a == Lsr.Lsdb.graph b);
  check Alcotest.bool "sibling unaffected" true
    (Net.Graph.link_is_up (Lsr.Lsdb.graph b) 0 1);
  let late = Lsr.Lsdb.create boot in
  check Alcotest.bool "boot image unaffected" true
    (Net.Graph.link_is_up (Lsr.Lsdb.graph late) 0 1);
  check Alcotest.bool "sibling still on the boot image" true
    (Lsr.Lsdb.graph b == Lsr.Lsdb.graph late);
  (* Version bookkeeping is per database. *)
  check Alcotest.int "flipping version" 1 (Lsr.Lsdb.version a ~u:0 ~v:1);
  check Alcotest.int "sibling version" 0 (Lsr.Lsdb.version b ~u:0 ~v:1);
  check
    Alcotest.(list (triple int int bool))
    "entries"
    [ (0, 1, false); (1, 2, true) ]
    (List.map
       (fun (e : Lsr.Lsdb.link_event) -> (e.u, e.v, e.up))
       (Lsr.Lsdb.entries a));
  check Alcotest.int "sibling entries" 0 (List.length (Lsr.Lsdb.entries b));
  (* Flipping the link back returns to the boot image itself. *)
  Lsr.Lsdb.apply a { u = 0; v = 1; up = true; version = 2 };
  check Alcotest.bool "flip back applied" true
    (Net.Graph.link_is_up (Lsr.Lsdb.graph a) 0 1);
  check Alcotest.bool "flip back returns the boot image" true
    (Lsr.Lsdb.graph a == Lsr.Lsdb.graph late)

let distinct_graphs dbs =
  List.fold_left
    (fun acc db ->
      let g = Lsr.Lsdb.graph db in
      if List.memq g acc then acc else g :: acc)
    [] dbs
  |> List.length

(* Images are interned per boot: databases that know the same link
   states read one graph, and no published graph changes after. *)
let test_lsdb_interned () =
  let boot = Lsr.Lsdb.boot (Net.Topo_gen.ring 5) in
  let down u v : Lsr.Lsdb.link_event = { u; v; up = false; version = 1 } in
  let a = Lsr.Lsdb.create boot and b = Lsr.Lsdb.create boot in
  Lsr.Lsdb.apply a (down 0 1);
  Lsr.Lsdb.apply a (down 2 3);
  Lsr.Lsdb.apply b (down 3 2);
  Lsr.Lsdb.apply b (down 1 0);
  check Alcotest.bool "same flipped set in either order, one graph" true
    (Lsr.Lsdb.graph a == Lsr.Lsdb.graph b);
  let shared = Lsr.Lsdb.graph b in
  (* A copy shares the image; a flip on the copy leaves the source. *)
  let c = Lsr.Lsdb.copy b in
  check Alcotest.bool "copy shares the image" true (Lsr.Lsdb.graph c == shared);
  Lsr.Lsdb.apply c { u = 0; v = 1; up = true; version = 2 };
  check Alcotest.bool "copy flipped" true
    (Net.Graph.link_is_up (Lsr.Lsdb.graph c) 0 1);
  check Alcotest.bool "copy's source keeps its image" true
    (Lsr.Lsdb.graph b == shared);
  check Alcotest.int "copy's source keeps its version" 1
    (Lsr.Lsdb.version b ~u:0 ~v:1);
  (* A flip by one database never changes what a sibling reads. *)
  check Alcotest.bool "sibling still reads the link down" false
    (Net.Graph.link_is_up (Lsr.Lsdb.graph a) 0 1);
  check Alcotest.bool "shared graph unchanged" false
    (Net.Graph.link_is_up shared 0 1);
  check Alcotest.int "shared graph's version unchanged" 1
    (Net.Graph.version shared);
  (* The shared graph carries one shortest-path memo for both. *)
  let ra = Net.Dijkstra.run (Lsr.Lsdb.graph a) 0
  and rb = Net.Dijkstra.run (Lsr.Lsdb.graph b) 0 in
  check Alcotest.bool "one physical search result" true
    (ra.dist == rb.dist && ra.pred == rb.pred);
  check Alcotest.int "three graphs published" 3
    (distinct_graphs [ a; b; c; Lsr.Lsdb.create boot ])

(* 100 databases learn the same k link failures, half in forward order
   and half in reverse: at each step they hold one graph per order, and
   one graph once they agree. *)
let test_lsdb_sharing_bound () =
  let boot = Lsr.Lsdb.boot (Net.Topo_gen.ring 8) in
  let dbs = List.init 100 (fun _ -> Lsr.Lsdb.create boot) in
  let links = [ (0, 1); (2, 3); (4, 5); (6, 7); (1, 2) ] in
  let k = List.length links in
  List.iteri
    (fun step _ ->
      List.iteri
        (fun i db ->
          let u, v = List.nth links (if i < 50 then step else k - 1 - step) in
          Lsr.Lsdb.apply db { u; v; up = false; version = 1 })
        dbs;
      let n = distinct_graphs dbs in
      if n > 2 then Alcotest.failf "step %d: %d distinct graphs" (step + 1) n)
    links;
  check Alcotest.int "one graph after the last step" 1 (distinct_graphs dbs)

let test_lsdb_apply () =
  let g = Net.Topo_gen.line 3 in
  let db = Lsr.Lsdb.create (Lsr.Lsdb.boot g) in
  Lsr.Lsdb.apply db { u = 0; v = 1; up = false; version = 1 };
  check Alcotest.bool "down applied" false
    (Net.Graph.link_is_up (Lsr.Lsdb.graph db) 0 1);
  Lsr.Lsdb.apply db { u = 0; v = 1; up = true; version = 2 };
  check Alcotest.bool "up applied" true
    (Net.Graph.link_is_up (Lsr.Lsdb.graph db) 0 1)

let test_lsdb_version_gating () =
  let g = Net.Topo_gen.line 3 in
  let db = Lsr.Lsdb.create (Lsr.Lsdb.boot g) in
  check Alcotest.int "boot version" 0 (Lsr.Lsdb.version db ~u:0 ~v:1);
  Lsr.Lsdb.apply db { u = 0; v = 1; up = false; version = 2 };
  check Alcotest.int "version recorded" 2 (Lsr.Lsdb.version db ~u:0 ~v:1);
  (* A stale re-flood (an older change learned late) must not win. *)
  Lsr.Lsdb.apply db { u = 0; v = 1; up = true; version = 1 };
  check Alcotest.bool "stale version ignored" false
    (Net.Graph.link_is_up (Lsr.Lsdb.graph db) 0 1);
  (* Duplicates of the same change are no-ops too. *)
  Lsr.Lsdb.apply db { u = 0; v = 1; up = true; version = 2 };
  check Alcotest.bool "duplicate version ignored" false
    (Net.Graph.link_is_up (Lsr.Lsdb.graph db) 0 1);
  Lsr.Lsdb.apply db { u = 0; v = 1; up = true; version = 3 };
  check Alcotest.bool "newer version applies" true
    (Net.Graph.link_is_up (Lsr.Lsdb.graph db) 0 1);
  (* Endpoint order is normalised. *)
  check Alcotest.int "symmetric lookup" 3 (Lsr.Lsdb.version db ~u:1 ~v:0)

(* The ground-truth clock versions each link's changes in order, counts
   the two orientations of a link as one, and keeps the caller's. *)
let test_lsdb_clock () =
  let c = Lsr.Lsdb.clock () in
  let first = Lsr.Lsdb.stamp c 1 0 ~up:false in
  check Alcotest.(triple int int bool) "orientation kept" (1, 0, false)
    (first.u, first.v, first.up);
  check Alcotest.int "first change" 1 first.version;
  check Alcotest.int "one link either way" 2
    (Lsr.Lsdb.stamp c 0 1 ~up:true).version;
  check Alcotest.int "links counted apart" 1
    (Lsr.Lsdb.stamp c 1 2 ~up:false).version

let test_lsdb_entries () =
  let g = Net.Topo_gen.line 3 in
  let db = Lsr.Lsdb.create (Lsr.Lsdb.boot g) in
  check
    (Alcotest.list Alcotest.int)
    "boot entries empty" []
    (List.map (fun (e : Lsr.Lsdb.link_event) -> e.version) (Lsr.Lsdb.entries db));
  Lsr.Lsdb.apply db { u = 1; v = 2; up = false; version = 1 };
  Lsr.Lsdb.apply db { u = 0; v = 1; up = false; version = 1 };
  Lsr.Lsdb.apply db { u = 0; v = 1; up = true; version = 2 };
  match Lsr.Lsdb.entries db with
  | [ a; b ] ->
    check Alcotest.(triple int int bool) "first entry sorted" (0, 1, true)
      (a.u, a.v, a.up);
    check Alcotest.int "first entry version" 2 a.version;
    check Alcotest.(triple int int bool) "second entry" (1, 2, false)
      (b.u, b.v, b.up);
    check Alcotest.int "second entry version" 1 b.version
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

let test_lsdb_unknown_link_ignored () =
  let g = Net.Topo_gen.line 3 in
  let db = Lsr.Lsdb.create (Lsr.Lsdb.boot g) in
  Lsr.Lsdb.apply db { u = 0; v = 2; up = false; version = 1 };
  check Alcotest.int "graph unchanged" 2 (Net.Graph.n_edges (Lsr.Lsdb.graph db))

let () =
  Alcotest.run "lsr"
    [
      ( "lsa",
        [
          Alcotest.test_case "identity" `Quick test_lsa_identity;
          Alcotest.test_case "sequence counter" `Quick test_lsa_seq_counter;
        ] );
      ( "flooding",
        [
          Alcotest.test_case "reaches everyone once" `Quick
            test_flooding_reaches_everyone_once;
          Alcotest.test_case "arrival times" `Quick
            test_flooding_arrival_times_are_hops;
          Alcotest.test_case "counters" `Quick test_flooding_counters;
          Alcotest.test_case "ring message count" `Quick
            test_flooding_ring_message_count;
          Alcotest.test_case "partition" `Quick test_flooding_partition;
          Alcotest.test_case "link fails mid-flood" `Quick
            test_flooding_link_fails_mid_flood;
          Alcotest.test_case "duplicate suppression" `Quick
            test_flooding_duplicate_lsa_ignored;
          Alcotest.test_case "flood diameter" `Quick test_flood_diameter;
          Alcotest.test_case "rejects bad t_hop" `Quick
            test_flooding_rejects_bad_t_hop;
          Alcotest.test_case "rejects a bad origin or seq" `Quick
            test_flooding_rejects_bad_lsa;
          Alcotest.test_case "allocation bound per message" `Quick
            test_flooding_allocation_bound;
          Alcotest.test_case "flood hop allocation (release)" `Quick
            test_flood_hop_allocation;
          Alcotest.test_case "first flood allocation bound" `Quick
            test_first_flood_allocation;
        ] );
      ( "lsdb",
        [
          Alcotest.test_case "isolated copy" `Quick test_lsdb_isolated_copy;
          Alcotest.test_case "interned images" `Quick test_lsdb_interned;
          Alcotest.test_case "sharing bound" `Quick test_lsdb_sharing_bound;
          Alcotest.test_case "apply events" `Quick test_lsdb_apply;
          Alcotest.test_case "version gating" `Quick test_lsdb_version_gating;
          Alcotest.test_case "link clock" `Quick test_lsdb_clock;
          Alcotest.test_case "entries export" `Quick test_lsdb_entries;
          Alcotest.test_case "unknown link ignored" `Quick
            test_lsdb_unknown_link_ignored;
        ] );
    ]
