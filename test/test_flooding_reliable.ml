(* Tests for the reliable (ack + retransmit) flooding mode: delivery
   under heavy loss, exactly-once semantics, bounded retransmission,
   clean timeout against an unreachable neighbor, and counter
   comparability with the lossless hop-by-hop mode. *)

let check = Alcotest.check

(* A flooding instance under a fault plan; returns the instance, the
   engine, and the delivery log. *)
let make ?reliability ?transmit ?(mode = Lsr.Flooding.Reliable) graph ~t_hop =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let deliver ~switch lsa = log := (switch, Lsr.Lsa.id lsa) :: !log in
  let f =
    Lsr.Flooding.create ~engine ~graph ~t_hop ~mode ?reliability ?transmit
      ~deliver ()
  in
  (f, engine, log)

let faulty_transmit plan engine ~src ~dst ~base_delay =
  Faults.Plan.transmit plan ~src ~dst ~now:(Sim.Engine.now engine) ~base_delay

let test_all_delivered_under_loss () =
  let graph = Net.Topo_gen.waxman (Sim.Rng.create 5) ~n:15 ~target_degree:3.5 () in
  let spec =
    { Faults.Plan.spec_default with drop = 0.3; duplicate = 0.2; reorder = 0.2 }
  in
  let plan = Faults.Plan.create ~spec ~seed:11 () in
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay
  in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit in
  engine_ref := Some engine;
  (* Several LSAs from several origins, overlapping in time. *)
  let ids = [ (0, 0); (7, 0); (3, 0); (0, 1); (11, 0) ] in
  List.iter
    (fun (origin, seq) ->
      ignore
        (Sim.Engine.schedule engine
           ~delay:(float_of_int (seq * 3))
           (fun () -> Lsr.Flooding.flood f (Lsr.Lsa.make ~origin ~seq ()))))
    ids;
  Sim.Engine.run engine;
  check Alcotest.bool "loss actually injected" true
    ((Faults.Plan.counters plan).Faults.Plan.dropped > 0);
  check Alcotest.bool "retransmissions happened" true
    (Lsr.Flooding.retransmissions f > 0);
  (* Every switch except the origin received every LSA, exactly once. *)
  let n = Net.Graph.n_nodes graph in
  List.iter
    (fun (origin, seq) ->
      for sw = 0 to n - 1 do
        let copies =
          List.length
            (List.filter (fun (s, id) -> s = sw && id = (origin, seq)) !log)
        in
        let expected = if sw = origin then 0 else 1 in
        check Alcotest.int
          (Printf.sprintf "switch %d, lsa (%d,%d)" sw origin seq)
          expected copies
      done)
    ids;
  check Alcotest.int "no transfer left pending" 0
    (Lsr.Flooding.pending_retransmits f);
  check Alcotest.int "no transfer abandoned" 0
    (Lsr.Flooding.deliveries_abandoned f)

let test_bounded_retransmissions () =
  (* Drop everything: the sender must give up after exactly max_retries
     retransmissions per (link, LSA) transfer — it must not retry
     forever (the engine would never quiesce). *)
  let graph = Net.Topo_gen.line 2 in
  let transmit ~src:_ ~dst:_ ~base_delay:_ = [] in
  let reliability = { Lsr.Flooding.default_reliability with max_retries = 3 } in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit ~reliability in
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  Sim.Engine.run engine;
  check Alcotest.int "nothing delivered" 0 (List.length !log);
  check Alcotest.int "one first copy" 1 (Lsr.Flooding.messages_sent f);
  check Alcotest.int "exactly max_retries retransmissions" 3
    (Lsr.Flooding.retransmissions f);
  check Alcotest.int "transfer abandoned" 1
    (Lsr.Flooding.deliveries_abandoned f);
  check Alcotest.int "state aged out" 0 (Lsr.Flooding.pending_retransmits f)

let test_partitioned_switch_times_out () =
  (* Switch 3 hangs off a line; a fault plan blocks it permanently (the
     window outlives the whole retry schedule).  The rest of the network
     converges, the transfers toward 3 are abandoned, and the engine
     quiesces cleanly. *)
  let graph = Net.Topo_gen.line 4 in
  let plan = Faults.Plan.create ~seed:2 () in
  Faults.Plan.crash_switch plan ~switch:3 ~from_:0.0 ~until:1e12;
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay
  in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit in
  engine_ref := Some engine;
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  Sim.Engine.run engine;
  let receivers = List.sort compare (List.map fst !log) in
  check Alcotest.(list int) "reachable switches delivered" [ 1; 2 ] receivers;
  check Alcotest.int "transfer to the dead switch abandoned" 1
    (Lsr.Flooding.deliveries_abandoned f);
  check Alcotest.int "retry state aged out" 0
    (Lsr.Flooding.pending_retransmits f);
  check Alcotest.int "full retry budget spent"
    Lsr.Flooding.default_reliability.max_retries
    (Lsr.Flooding.retransmissions f)

let test_exactly_once_under_duplication () =
  (* Duplicate aggressively, never drop: every data message arrives at
     least twice, yet deliver fires once per (switch, origin, seq). *)
  let graph = Net.Topo_gen.ring 8 in
  let spec = { Faults.Plan.spec_default with duplicate = 1.0 } in
  let plan = Faults.Plan.create ~spec ~seed:9 () in
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay
  in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit in
  engine_ref := Some engine;
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:0 ~seq:4 ());
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:2 ~seq:0 ());
  Sim.Engine.run engine;
  check Alcotest.bool "duplicates injected" true
    ((Faults.Plan.counters plan).Faults.Plan.duplicated > 0);
  let sorted = List.sort compare !log in
  check Alcotest.bool "exactly once per (switch, lsa)" true
    (List.length sorted = List.length (List.sort_uniq compare sorted));
  check Alcotest.int "14 deliveries (7 switches x 2 LSAs)" 14
    (List.length sorted)

module Receipt = Set.Make (struct
  type t = int * int * int  (* switch, origin, seq *)

  let compare (s1, o1, q1) (s2, o2, q2) =
    match Int.compare s1 s2 with
    | 0 -> ( match Int.compare o1 o2 with 0 -> Int.compare q1 q2 | c -> c)
    | c -> c
end)

(* Three origins each flood 40 sequence numbers a fifth of a hop apart
   under reordering, duplication and jitter, so later numbers overtake
   earlier ones on the way and the duplicate check opens and fills gaps
   below its high-water marks.  [deliver] must still fire exactly once
   per (switch, origin, seq), checked against a plain reference set. *)
let test_exactly_once_under_reordering mode () =
  let graph = Net.Topo_gen.waxman (Sim.Rng.create 3) ~n:12 ~target_degree:3.5 () in
  let n = Net.Graph.n_nodes graph in
  let spec =
    { Faults.Plan.spec_default with duplicate = 0.3; reorder = 0.3; jitter = 0.5 }
  in
  let plan = Faults.Plan.create ~spec ~seed:17 () in
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay
  in
  let f, engine, log = make graph ~t_hop:1.0 ~mode ~transmit in
  engine_ref := Some engine;
  let origins = [ 0; 5; 9 ] and per_origin = 40 in
  List.iter
    (fun origin ->
      for seq = 0 to per_origin - 1 do
        ignore
          (Sim.Engine.schedule engine ~delay:(0.2 *. float_of_int seq)
             (fun () -> Lsr.Flooding.flood f (Lsr.Lsa.make ~origin ~seq ())))
      done)
    origins;
  Sim.Engine.run engine;
  let receipts = List.rev_map (fun (sw, (o, q)) -> (sw, o, q)) !log in
  let reference =
    List.concat_map
      (fun origin ->
        List.concat
          (List.init per_origin (fun seq ->
               List.filter_map
                 (fun sw -> if sw = origin then None else Some (sw, origin, seq))
                 (List.init n Fun.id))))
      origins
    |> Receipt.of_list
  in
  check Alcotest.bool "every (switch, origin, seq) delivered" true
    (Receipt.equal (Receipt.of_list receipts) reference);
  check Alcotest.int "and each exactly once" (Receipt.cardinal reference)
    (List.length receipts);
  (* In delivery order, some switch got a lower seq from an origin after
     a higher one: reordering reached the gap path. *)
  let highest = Array.make (n * n) (-1) in
  let overtaken =
    List.fold_left
      (fun acc (sw, o, q) ->
        let k = (sw * n) + o in
        if q < highest.(k) then acc + 1
        else begin
          highest.(k) <- q;
          acc
        end)
      0 receipts
  in
  check Alcotest.bool "later seqs overtook earlier ones" true (overtaken > 0);
  check Alcotest.bool "duplicates injected" true
    ((Faults.Plan.counters plan).Faults.Plan.duplicated > 0)

let test_lossless_reliable_matches_hop_by_hop () =
  (* Satellite: counter semantics.  Without faults, Reliable sends
     exactly Hop_by_hop's data messages; its cost is isolated in acks
     (one per received data copy) with zero retransmissions. *)
  let graph = Net.Topo_gen.waxman (Sim.Rng.create 3) ~n:12 ~target_degree:3.5 () in
  let run mode =
    let f, engine, log = make graph ~t_hop:1.0 ~mode in
    List.iter
      (fun origin -> Lsr.Flooding.flood f (Lsr.Lsa.make ~origin ~seq:0 ()))
      [ 0; 5; 9 ];
    Sim.Engine.run engine;
    (f, List.sort compare !log)
  in
  let hop, hop_log = run Lsr.Flooding.Hop_by_hop in
  let rel, rel_log = run Lsr.Flooding.Reliable in
  check Alcotest.bool "same deliveries" true (hop_log = rel_log);
  check Alcotest.int "messages_sent identical"
    (Lsr.Flooding.messages_sent hop)
    (Lsr.Flooding.messages_sent rel);
  check Alcotest.int "hop-by-hop sends no acks" 0 (Lsr.Flooding.acks_sent hop);
  (* Every received data copy is acked, and without loss there is
     exactly one copy per data message. *)
  check Alcotest.int "one ack per data message"
    (Lsr.Flooding.messages_sent rel)
    (Lsr.Flooding.acks_sent rel);
  check Alcotest.int "no retransmissions without loss" 0
    (Lsr.Flooding.retransmissions rel);
  check Alcotest.int "nothing abandoned" 0
    (Lsr.Flooding.deliveries_abandoned rel)

let test_unicast_duplicates_by_mode () =
  (* One transport, acks on or off: under a hook that doubles every data
     copy, a hop-by-hop unicast delivers both copies (no dedup, no acks),
     while a reliable one deduplicates to a single delivery. *)
  let graph = Net.Topo_gen.line 2 in
  let transmit ~src:_ ~dst:_ ~base_delay = [ base_delay; base_delay ] in
  let run mode =
    let f, engine, log = make graph ~t_hop:1.0 ~transmit ~mode in
    Lsr.Flooding.send f ~src:0 ~dst:1 (Lsr.Lsa.make ~origin:0 ~seq:0 ());
    Sim.Engine.run engine;
    (f, List.length !log)
  in
  let hop, hop_delivered = run Lsr.Flooding.Hop_by_hop in
  let rel, rel_delivered = run Lsr.Flooding.Reliable in
  check Alcotest.int "hop-by-hop delivers every copy" 2 hop_delivered;
  check Alcotest.int "hop-by-hop sends no acks" 0 (Lsr.Flooding.acks_sent hop);
  check Alcotest.int "reliable delivers one" 1 rel_delivered;
  check Alcotest.int "reliable acks both copies" 2 (Lsr.Flooding.acks_sent rel);
  check Alcotest.(pair int int) "one first copy either way" (1, 1)
    (Lsr.Flooding.messages_sent hop, Lsr.Flooding.messages_sent rel)

let test_giveup_once_crash_window_closes_mid_backoff () =
  (* Regression: a unicast transfer whose destination is crashed for the
     whole retry schedule must fire on_giveup exactly once — including
     when the crash window closes between two backoff attempts (the
     give-up path used to be able to race a late retransmit timer). *)
  let graph = Net.Topo_gen.line 2 in
  let plan = Faults.Plan.create ~seed:4 () in
  (* rto=4, retries=3: attempts at 0, 4, 12, 28 hop-times; the window
     closes at 20.0, mid-way through the final backoff wait. *)
  Faults.Plan.crash_switch plan ~switch:1 ~from_:0.0 ~until:20.0;
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay
  in
  let reliability = { Lsr.Flooding.default_reliability with max_retries = 3 } in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit ~reliability in
  engine_ref := Some engine;
  let giveups = ref 0 in
  Lsr.Flooding.send f ~src:0 ~dst:1
    ~on_giveup:(fun () -> incr giveups)
    (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  Sim.Engine.run engine;
  (* The final attempt at t=28 lands after the window closes, so the
     transfer actually completes — and the give-up must then never fire. *)
  check Alcotest.int "delivered after the window closed" 1 (List.length !log);
  check Alcotest.int "no giveup for a completed transfer" 0 !giveups;
  check Alcotest.int "state aged out" 0 (Lsr.Flooding.pending_retransmits f);
  (* Same schedule against a window outliving every attempt: exactly one
     give-up, no double-fire from the abandoned timer. *)
  let plan2 = Faults.Plan.create ~seed:4 () in
  Faults.Plan.crash_switch plan2 ~switch:1 ~from_:0.0 ~until:1e12;
  let engine_ref2 = ref None in
  let transmit2 ~src ~dst ~base_delay =
    faulty_transmit plan2 (Option.get !engine_ref2) ~src ~dst ~base_delay
  in
  let f2, engine2, log2 = make graph ~t_hop:1.0 ~transmit:transmit2 ~reliability in
  engine_ref2 := Some engine2;
  let giveups2 = ref 0 in
  Lsr.Flooding.send f2 ~src:0 ~dst:1
    ~on_giveup:(fun () -> incr giveups2)
    (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  Sim.Engine.run engine2;
  check Alcotest.int "nothing delivered" 0 (List.length !log2);
  check Alcotest.int "on_giveup fired exactly once" 1 !giveups2;
  check Alcotest.int "abandoned counted once" 1
    (Lsr.Flooding.deliveries_abandoned f2);
  check Alcotest.int "state aged out" 0 (Lsr.Flooding.pending_retransmits f2)

let test_abandon_link_cancels_pending_once () =
  (* The health layer's dead-neighbor hook: abandon_link cancels the
     pending transfer immediately, fires its on_giveup exactly once, and
     a second call (or the stale retransmit timer) finds nothing. *)
  let graph = Net.Topo_gen.line 2 in
  let transmit ~src:_ ~dst:_ ~base_delay:_ = [] in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit in
  let giveups = ref 0 in
  Lsr.Flooding.send f ~src:0 ~dst:1
    ~on_giveup:(fun () -> incr giveups)
    (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  (* Let the first transmission (and one backoff) happen, then declare
     the neighbor dead mid-flight. *)
  ignore
    (Sim.Engine.schedule engine ~delay:5.0 (fun () ->
         check Alcotest.int "transfer pending before abandon" 1
           (Lsr.Flooding.pending_retransmits f);
         check Alcotest.int "one transfer cancelled" 1
           (Lsr.Flooding.abandon_link f ~src:0 ~dst:1);
         check Alcotest.int "giveup fired synchronously" 1 !giveups;
         check Alcotest.int "second abandon finds nothing" 0
           (Lsr.Flooding.abandon_link f ~src:0 ~dst:1)));
  Sim.Engine.run engine;
  check Alcotest.int "nothing delivered" 0 (List.length !log);
  check Alcotest.int "giveup still exactly once after the run" 1 !giveups;
  check Alcotest.int "cancelled transfer counted abandoned" 1
    (Lsr.Flooding.deliveries_abandoned f);
  check Alcotest.int "no pending state left" 0
    (Lsr.Flooding.pending_retransmits f)

let () =
  Alcotest.run "flooding_reliable"
    [
      ( "reliable",
        [
          Alcotest.test_case "every LSA delivered under 30% loss" `Quick
            test_all_delivered_under_loss;
          Alcotest.test_case "retransmissions are bounded" `Quick
            test_bounded_retransmissions;
          Alcotest.test_case "permanently blocked switch times out cleanly"
            `Quick test_partitioned_switch_times_out;
          Alcotest.test_case "exactly-once deliver under duplication" `Quick
            test_exactly_once_under_duplication;
          Alcotest.test_case "exactly-once deliver under reordering \
                              (hop-by-hop)"
            `Quick
            (test_exactly_once_under_reordering Lsr.Flooding.Hop_by_hop);
          Alcotest.test_case "exactly-once deliver under reordering (reliable)"
            `Quick
            (test_exactly_once_under_reordering Lsr.Flooding.Reliable);
          Alcotest.test_case "lossless reliable = hop-by-hop modulo acks"
            `Quick test_lossless_reliable_matches_hop_by_hop;
          Alcotest.test_case "duplicated unicast: hop-by-hop delivers every \
                              copy, reliable one"
            `Quick test_unicast_duplicates_by_mode;
          Alcotest.test_case "giveup fires once when a crash window closes \
                              mid-backoff"
            `Quick test_giveup_once_crash_window_closes_mid_backoff;
          Alcotest.test_case "abandon_link cancels pending state exactly once"
            `Quick test_abandon_link_cancels_pending_once;
        ] );
    ]
