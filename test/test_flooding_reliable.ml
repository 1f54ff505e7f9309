(* Tests for the reliable (ack + retransmit) flooding mode: delivery
   under heavy loss, exactly-once semantics, bounded retransmission,
   clean timeout against an unreachable neighbor, and counter
   comparability with the lossless hop-by-hop mode. *)

let check = Alcotest.check

(* A flooding instance under a fault plan; returns the instance, the
   engine, and the delivery log. *)
let make ?reliability ?transmit ?(mode = Lsr.Flooding.Reliable) graph ~t_hop =
  let engine = Sim.Engine.create ~metrics:(Metrics.Registry.create ()) () in
  let log = ref [] in
  let deliver ~switch (lsa : _ Lsr.Lsa.t) =
    log := (switch, (lsa.origin, lsa.seq)) :: !log
  in
  let f =
    Lsr.Flooding.create ~engine ~graph ~t_hop ~mode ?reliability ?transmit
      ~deliver ()
  in
  (f, engine, log)

(* Delivery-log order: switch, then origin, then seq. *)
let compare_delivery (s, (o, q)) (s', (o', q')) =
  match Int.compare s s' with
  | 0 -> ( match Int.compare o o' with 0 -> Int.compare q q' | c -> c)
  | c -> c

(* Transfers abandoned after exhausting their retries, as the engine's
   registry counts them. *)
let abandoned engine =
  Oracle.Registry.counter_total (Sim.Engine.metrics engine) "flood.abandoned"

let faulty_transmit plan engine ~src ~dst ~base_delay delays =
  Faults.Plan.transmit plan ~src ~dst ~now:(Sim.Engine.now engine) ~base_delay
    delays

let test_all_delivered_under_loss () =
  let graph = Net.Topo_gen.waxman (Sim.Rng.create 5) ~n:15 in
  let spec =
    Oracle.Plan.spec "drop=0.3,dup=0.2,reorder=0.2"
  in
  let plan = Faults.Plan.create ~spec ~seed:11 () in
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay delays =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay delays
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
            (List.filter (fun (s, (o, q)) -> s = sw && o = origin && q = seq) !log)
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
    (abandoned engine)

let test_bounded_retransmissions () =
  (* Drop everything: the sender must give up after exactly max_retries
     retransmissions per (link, LSA) transfer — it must not retry
     forever (the engine would never quiesce). *)
  let graph = Net.Topo_gen.line 2 in
  let transmit ~src:_ ~dst:_ ~base_delay:_ _ = 0 in
  let reliability = { Lsr.Flooding.default_reliability with max_retries = 3 } in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit ~reliability in
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  Sim.Engine.run engine;
  check Alcotest.int "nothing delivered" 0 (List.length !log);
  check Alcotest.int "one first copy" 1 (Lsr.Flooding.messages_sent f);
  check Alcotest.int "exactly max_retries retransmissions" 3
    (Lsr.Flooding.retransmissions f);
  check Alcotest.int "transfer abandoned" 1
    (abandoned engine);
  check Alcotest.int "state aged out" 0 (Lsr.Flooding.pending_retransmits f)

let test_partitioned_switch_times_out () =
  (* Switch 3 hangs off a line; a fault plan blocks it permanently (the
     window outlives the whole retry schedule).  The rest of the network
     converges, the transfers toward 3 are abandoned, and the engine
     quiesces cleanly. *)
  let graph = Net.Topo_gen.line 4 in
  let plan = Faults.Plan.create ~spec:Oracle.Plan.transparent ~seed:2 () in
  Faults.Plan.crash_switch plan ~switch:3 ~from_:0.0 ~until:1e12;
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay delays =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay delays
  in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit in
  engine_ref := Some engine;
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  Sim.Engine.run engine;
  let receivers = List.sort Int.compare (List.map fst !log) in
  check Alcotest.(list int) "reachable switches delivered" [ 1; 2 ] receivers;
  check Alcotest.int "transfer to the dead switch abandoned" 1
    (abandoned engine);
  check Alcotest.int "retry state aged out" 0
    (Lsr.Flooding.pending_retransmits f);
  check Alcotest.int "full retry budget spent"
    Lsr.Flooding.default_reliability.max_retries
    (Lsr.Flooding.retransmissions f)

let test_exactly_once_under_duplication () =
  (* Duplicate aggressively, never drop: every data message arrives at
     least twice, yet deliver fires once per (switch, origin, seq). *)
  let graph = Net.Topo_gen.ring 8 in
  let spec = Oracle.Plan.spec "dup=1" in
  let plan = Faults.Plan.create ~spec ~seed:9 () in
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay delays =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay delays
  in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit in
  engine_ref := Some engine;
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:0 ~seq:4 ());
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:2 ~seq:0 ());
  Sim.Engine.run engine;
  check Alcotest.bool "duplicates injected" true
    ((Faults.Plan.counters plan).Faults.Plan.duplicated > 0);
  let sorted = List.sort compare_delivery !log in
  check Alcotest.bool "exactly once per (switch, lsa)" true
    (List.length sorted = List.length (List.sort_uniq compare_delivery sorted));
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
  let graph = Net.Topo_gen.waxman (Sim.Rng.create 3) ~n:12 in
  let n = Net.Graph.n_nodes graph in
  let spec =
    Oracle.Plan.spec "dup=0.3,reorder=0.3,jitter=0.5"
  in
  let plan = Faults.Plan.create ~spec ~seed:17 () in
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay delays =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay delays
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
  let graph = Net.Topo_gen.waxman (Sim.Rng.create 3) ~n:12 in
  let run mode =
    let f, engine, log = make graph ~t_hop:1.0 ~mode in
    List.iter
      (fun origin -> Lsr.Flooding.flood f (Lsr.Lsa.make ~origin ~seq:0 ()))
      [ 0; 5; 9 ];
    Sim.Engine.run engine;
    (f, engine, List.sort compare_delivery !log)
  in
  let hop, _, hop_log = run Lsr.Flooding.Hop_by_hop in
  let rel, rel_engine, rel_log = run Lsr.Flooding.Reliable in
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
    (abandoned rel_engine)

let test_unicast_duplicates_delivered_once () =
  (* One transport, acks on or off: under a hook that doubles every data
     copy, a unicast is delivered once in both modes; only the reliable
     one acks, and it acks both copies. *)
  let graph = Net.Topo_gen.line 2 in
  let transmit ~src:_ ~dst:_ ~base_delay delays =
    delays.(0) <- base_delay;
    delays.(1) <- base_delay;
    2
  in
  let run mode =
    let f, engine, log = make graph ~t_hop:1.0 ~transmit ~mode in
    Lsr.Flooding.send f ~src:0 ~dst:1 (Lsr.Lsa.make ~origin:0 ~seq:0 ());
    Sim.Engine.run engine;
    (f, List.length !log)
  in
  let hop, hop_delivered = run Lsr.Flooding.Hop_by_hop in
  let rel, rel_delivered = run Lsr.Flooding.Reliable in
  check Alcotest.int "hop-by-hop delivers one" 1 hop_delivered;
  check Alcotest.int "hop-by-hop sends no acks" 0 (Lsr.Flooding.acks_sent hop);
  check Alcotest.int "reliable delivers one" 1 rel_delivered;
  check Alcotest.int "reliable acks both copies" 2 (Lsr.Flooding.acks_sent rel);
  check Alcotest.(pair int int) "one first copy either way" (1, 1)
    (Lsr.Flooding.messages_sent hop, Lsr.Flooding.messages_sent rel)

let test_giveup_once_crash_window_closes_mid_backoff () =
  (* Regression: a unicast transfer whose destination is crashed for the
     whole retry schedule must be abandoned exactly once — and not at
     all when the crash window closes between two backoff attempts (the
     give-up path used to be able to race a late retransmit timer). *)
  let graph = Net.Topo_gen.line 2 in
  let plan = Faults.Plan.create ~spec:Oracle.Plan.transparent ~seed:4 () in
  (* rto=4, retries=3: attempts at 0, 4, 12, 28 hop-times; the window
     closes at 20.0, mid-way through the final backoff wait. *)
  Faults.Plan.crash_switch plan ~switch:1 ~from_:0.0 ~until:20.0;
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay delays =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay delays
  in
  let reliability = { Lsr.Flooding.default_reliability with max_retries = 3 } in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit ~reliability in
  engine_ref := Some engine;
  Lsr.Flooding.send f ~src:0 ~dst:1 (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  Sim.Engine.run engine;
  (* The final attempt at t=28 lands after the window closes, so the
     transfer actually completes — and must then never count as
     abandoned. *)
  check Alcotest.int "delivered after the window closed" 1 (List.length !log);
  check Alcotest.int "no abandonment of a completed transfer" 0
    (abandoned engine);
  check Alcotest.int "state aged out" 0 (Lsr.Flooding.pending_retransmits f);
  (* Same schedule against a window outliving every attempt: abandoned
     exactly once, no second count from the abandoned timer. *)
  let plan2 = Faults.Plan.create ~spec:Oracle.Plan.transparent ~seed:4 () in
  Faults.Plan.crash_switch plan2 ~switch:1 ~from_:0.0 ~until:1e12;
  let engine_ref2 = ref None in
  let transmit2 ~src ~dst ~base_delay delays =
    faulty_transmit plan2 (Option.get !engine_ref2) ~src ~dst ~base_delay
      delays
  in
  let f2, engine2, log2 = make graph ~t_hop:1.0 ~transmit:transmit2 ~reliability in
  engine_ref2 := Some engine2;
  Lsr.Flooding.send f2 ~src:0 ~dst:1 (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  Sim.Engine.run engine2;
  check Alcotest.int "nothing delivered" 0 (List.length !log2);
  check Alcotest.int "abandoned counted once" 1
    (abandoned engine2);
  check Alcotest.int "state aged out" 0 (Lsr.Flooding.pending_retransmits f2)

let test_abandon_link_cancels_pending_once () =
  (* The health layer's dead-neighbor hook: abandon_link cancels the
     pending transfer immediately, counts it abandoned exactly once, and
     a second call (or the stale retransmit timer) finds nothing. *)
  let graph = Net.Topo_gen.line 2 in
  let transmit ~src:_ ~dst:_ ~base_delay:_ _ = 0 in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit in
  Lsr.Flooding.send f ~src:0 ~dst:1 (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  (* Let the first transmission (and one backoff) happen, then declare
     the neighbor dead mid-flight. *)
  ignore
    (Sim.Engine.schedule engine ~delay:5.0 (fun () ->
         check Alcotest.int "transfer pending before abandon" 1
           (Lsr.Flooding.pending_retransmits f);
         check Alcotest.int "one transfer cancelled" 1
           (Lsr.Flooding.abandon_link f ~src:0 ~dst:1);
         check Alcotest.int "abandoned synchronously" 1
           (abandoned engine);
         check Alcotest.int "no pending state left at once" 0
           (Lsr.Flooding.pending_retransmits f);
         check Alcotest.int "second abandon finds nothing" 0
           (Lsr.Flooding.abandon_link f ~src:0 ~dst:1)));
  Sim.Engine.run engine;
  check Alcotest.int "nothing delivered" 0 (List.length !log);
  check Alcotest.int "abandoned still exactly once after the run" 1
    (abandoned engine);
  check Alcotest.int "no pending state left" 0
    (Lsr.Flooding.pending_retransmits f)

let test_abandon_link_cancels_only_its_link () =
  (* abandon_link reads one directed link's transfers: three on 0→1 are
     cancelled, in (origin, seq) order — the reverse of their keys' order
     (seq * n + origin) — while the one on 0→2 keeps retrying until its
     own budget runs out.  The order shows in the traced [Lsa_dropped]
     breadcrumbs: (dst, origin, seq, reason). *)
  let graph = Net.Topo_gen.star 4 in
  let transmit ~src:_ ~dst:_ ~base_delay:_ _ = 0 in
  let trace = Sim.Trace.create () in
  let engine =
    Sim.Engine.create ~trace ~metrics:(Metrics.Registry.create ()) ()
  in
  let f =
    Lsr.Flooding.create ~engine ~graph ~t_hop:1.0 ~mode:Lsr.Flooding.Reliable
      ~transmit ~deliver:(fun ~switch:_ _ -> ()) ()
  in
  (* [transmit] loses every copy ([fault] drops); the transfers' ends
     are the [neighbor-down] and [abandoned] drops. *)
  let giveups () =
    List.filter_map
      (fun (e : Sim.Trace.entry) ->
        match e.event with
        | Lsa_dropped { dst; origin; seq; reason; _ }
          when reason = "neighbor-down" || reason = "abandoned" ->
          Some ((dst, origin, seq), reason)
        | _ -> None)
      (Sim.Trace.entries trace)
  in
  let send ~dst (origin, seq) =
    Lsr.Flooding.send f ~src:0 ~dst (Lsr.Lsa.make ~origin ~seq ())
  in
  List.iter (send ~dst:1) [ (3, 0); (2, 1); (1, 4) ];
  send ~dst:2 (0, 2);
  ignore
    (Sim.Engine.schedule engine ~delay:1.0 (fun () ->
         check Alcotest.int "four transfers pending" 4
           (Lsr.Flooding.pending_retransmits f);
         check Alcotest.int "three cancelled" 3
           (Lsr.Flooding.abandon_link f ~src:0 ~dst:1);
         check
           Alcotest.(list (pair (triple int int int) string))
           "abandoned in (origin, seq) order"
           [
             ((1, 1, 4), "neighbor-down");
             ((1, 2, 1), "neighbor-down");
             ((1, 3, 0), "neighbor-down");
           ]
           (giveups ());
         check Alcotest.int "three abandoned" 3 (abandoned engine);
         check Alcotest.int "the 0→2 transfer still pending" 1
           (Lsr.Flooding.pending_retransmits f)));
  Sim.Engine.run engine;
  check
    Alcotest.(list (pair (triple int int int) string))
    "the 0→2 transfer gives up last"
    [
      ((1, 1, 4), "neighbor-down");
      ((1, 2, 1), "neighbor-down");
      ((1, 3, 0), "neighbor-down");
      ((2, 0, 2), "abandoned");
    ]
    (giveups ());
  check Alcotest.int "four abandoned in all" 4
    (abandoned engine);
  check Alcotest.int "no pending state left" 0
    (Lsr.Flooding.pending_retransmits f)

(* Words per first-copy message of an untraced reliable flood from every
   switch of a 100-switch graph through a lossy plan.  As in test_lsr's
   bound, the first flood from each origin creates the duplicate
   records, link tables and in-flight slots and is not measured. *)
let lossy_flood_words_per_message () =
  let n = 100 in
  let graph =
    Net.Topo_gen.waxman (Sim.Rng.create 7) ~n
  in
  let spec =
    {
      Faults.Plan.drop = 0.2;
      duplicate = 0.15;
      reorder = 0.1;
      jitter = 0.5;
    }
  in
  let plan = Faults.Plan.create ~spec ~seed:7 () in
  let engine_ref = ref None in
  let transmit ~src ~dst ~base_delay delays =
    faulty_transmit plan (Option.get !engine_ref) ~src ~dst ~base_delay delays
  in
  let f, engine, _ = make graph ~t_hop:1.0 ~transmit in
  engine_ref := Some engine;
  let flood_all seq =
    for origin = 0 to n - 1 do
      Lsr.Flooding.flood f (Lsr.Lsa.make ~origin ~seq ());
      Sim.Engine.run engine
    done
  in
  flood_all 0;
  let sent = Lsr.Flooding.messages_sent f in
  let words = Alloc.words_allocated (fun () -> flood_all 1) in
  let messages = Lsr.Flooding.messages_sent f - sent in
  (words /. float_of_int messages, messages)

let check_lossy_flood_words ~bound =
  let per_message, messages = lossy_flood_words_per_message () in
  if per_message > bound then
    (* dgmc-analyze: allow float-format — test failure message *)
    Alcotest.failf "%.1f words per message over %d messages (bound %.0f)"
      per_message messages bound

(* A reliable flood through a lossy plan allocates per first-copy
   message its data copies, acks and retransmissions (about three
   transmissions each here), the transfer record and its timer, and
   the delivery log.  The fault decisions add nothing where the plan's
   draws are inlined, and their boxed draws in dune's dev profile.
   This bound dates from when each copy also allocated its calendar
   entry and arrival closure (106 and 136 words a message, against 326
   when the plan returned a list). *)
let test_lossy_flood_allocation_bound () = check_lossy_flood_words ~bound:150.0

(* The same flood at its cost now.  Every copy, data or ack, is posted
   to the calendar with its in-flight slot's id, and its delay goes
   from the hook's array into the calendar unboxed where
   [Sim.Engine.post] is inlined: what remains is the transfer record,
   its link-table entry, its retransmit timer and the delivery log.  In
   dune's dev profile each copy's delay and each fault draw is boxed at
   a call. *)
let test_lossy_flood_copies_allocation () =
  check_lossy_flood_words
    ~bound:(if Alloc.cross_module_inlining then 60.0 else 100.0)

(* The same flood at its cost now.  A transfer takes a slot in the
   instance's parallel arrays and an index entry in place, its
   retransmit timer is a post of its token, and its ack finds it by the
   token the data copy carried: no record, closure, handle or table
   bucket per transfer.  What remains is the delivery log, the clock
   boxed once per time (this hook asks [Sim.Engine.now] on every
   transmission) and, in dune's dev profile, each copy's boxed delay
   and fault draws.  Measured: 10.2 words a message in release, 48.8 in
   dev (50.6 and 86.1 with the transfer record and timer closure). *)
let test_reliable_transfer_arms_no_closure () =
  check_lossy_flood_words
    ~bound:(if Alloc.cross_module_inlining then 12.0 else 58.0)

(* A reliable flood from every switch of a 100-switch graph through a
   lossy, jittered plan with no window, its hook shaped as
   [Protocol]'s: the clock is read only when the plan asks for it
   ([Faults.Plan.reads_clock]).  Every copy and ack has its own delay,
   so all of them go through the calendar's heap.  Past the first
   flood from each origin (which makes the duplicate records and grows
   the tables) and with a delivery that only counts, a flood allocates
   nothing per engine event where the engine's posts and the plan's
   draws are inlined.  The registry is off: its first bump of a handle
   lists it (about 12 words), and a later round can first retransmit
   from a switch that never had to.  Before the clock was boxed on demand, with the
   hook reading it on every transmission, this flood read 1.90 words
   per event in release, the box of nearly every new time.  In dune's
   dev profile each copy's delay and each fault draw is boxed at a
   call: 11.5 words per event. *)
let test_jittered_flood_allocates_nothing () =
  let n = 100 in
  let graph = Net.Topo_gen.waxman (Sim.Rng.create 7) ~n in
  let spec =
    { Faults.Plan.drop = 0.2; duplicate = 0.15; reorder = 0.1; jitter = 0.5 }
  in
  let plan = Faults.Plan.create ~spec ~seed:7 () in
  let engine = Sim.Engine.create () in
  Faults.Plan.instrument plan engine;
  let transmit ~src ~dst ~base_delay delays =
    let now =
      if Faults.Plan.reads_clock plan then Sim.Engine.now engine else 0.0
    in
    Faults.Plan.transmit plan ~src ~dst ~now ~base_delay delays
  in
  let delivered = ref 0 in
  let deliver ~switch:_ _ = incr delivered in
  let f =
    Lsr.Flooding.create ~engine ~graph ~t_hop:1.0 ~mode:Lsr.Flooding.Reliable
      ~transmit ~deliver ()
  in
  let flood_all lsas =
    for origin = 0 to n - 1 do
      Lsr.Flooding.flood f lsas.(origin);
      Sim.Engine.run engine
    done
  in
  let lsas seq = Array.init n (fun origin -> Lsr.Lsa.make ~origin ~seq ()) in
  flood_all (lsas 0);
  let second = lsas 1 and before = Sim.Engine.events_executed engine in
  let words = Alloc.words_allocated (fun () -> flood_all second) in
  let events = Sim.Engine.events_executed engine - before in
  check Alcotest.int "every switch received every flood" (2 * n * (n - 1))
    !delivered;
  let per_event = words /. float_of_int events in
  let bound = if Alloc.cross_module_inlining then 0.0 else 13.0 in
  if per_event > bound then
    (* dgmc-analyze: allow float-format — test failure message *)
    Alcotest.failf "%.2f words per engine event over %d events (bound %.0f)"
      per_event events bound

(* A transfer's timer names it by slot and generation.  An acked
   transfer's slot is reused by the next one while the acked one's
   timer is still in the calendar: when that timer surfaces it must
   find its generation gone, run nothing and touch no counter, and the
   new transfer keeps exactly its own schedule. *)
let test_stale_retransmit_after_slot_reuse () =
  let graph = Net.Topo_gen.line 2 in
  let lose = ref false in
  let transmit ~src:_ ~dst:_ ~base_delay delays =
    if !lose then 0
    else begin
      delays.(0) <- base_delay;
      1
    end
  in
  let f, engine, log = make graph ~t_hop:1.0 ~transmit in
  (* Acked at t = 2; its timeout was due at t = 4. *)
  Lsr.Flooding.send f ~src:0 ~dst:1 (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  Sim.Engine.schedule engine ~delay:2.5 (fun () ->
      check Alcotest.int "first transfer acked" 0
        (Lsr.Flooding.pending_retransmits f);
      check Alcotest.int "its timeout retired: only this action was due" 0
        (Sim.Engine.pending engine);
      (* The second transfer takes the freed slot; every copy is lost,
         so it times out at 6.5, 14.5, ... *)
      lose := true;
      Lsr.Flooding.send f ~src:0 ~dst:1 (Lsr.Lsa.make ~origin:0 ~seq:1 ());
      Sim.Engine.schedule engine ~delay:2.5 (fun () ->
          check Alcotest.int "the stale timeout at t = 4 retransmitted nothing"
            0
            (Lsr.Flooding.retransmissions f);
          check Alcotest.int "one transfer pending" 1
            (Lsr.Flooding.pending_retransmits f);
          check Alcotest.int "only its own timeout is due" 1
            (Sim.Engine.pending engine)));
  Sim.Engine.run engine;
  check Alcotest.int "first LSA delivered" 1 (List.length !log);
  check Alcotest.int "the second transfer spent exactly its budget"
    Lsr.Flooding.default_reliability.max_retries
    (Lsr.Flooding.retransmissions f);
  check Alcotest.int "and was abandoned once" 1
    (abandoned engine);
  check Alcotest.int "no pending state left" 0
    (Lsr.Flooding.pending_retransmits f)

(* A transfer still awaiting its ack is not restarted: a source sends
   an LSA once, so a second send raises and puts nothing on the wire,
   awaiting or ended, whatever its neighbours in the transfer table did
   meanwhile.  Random sends and [abandon_link]s over a star's six
   directed links and 32 LSAs, every copy lost, against a reference set
   of live transfers and of LSAs each switch has sent: a send puts one
   first copy on the wire exactly when its source has not sent its LSA,
   [abandon_link] ends exactly the link's live transfers, and each live
   transfer has exactly one timeout pending. *)
let test_awaiting_transfer_not_restarted () =
  let graph = Net.Topo_gen.star 4 in
  let transmit ~src:_ ~dst:_ ~base_delay:_ _ = 0 in
  let f, engine, _ = make graph ~t_hop:1.0 ~transmit in
  let module Keys = Set.Make (struct
    type t = int list

    let compare = List.compare Int.compare
  end) in
  let live = ref Keys.empty and sent = ref Keys.empty in
  let links = [| (0, 1); (0, 2); (0, 3); (1, 0); (2, 0); (3, 0) |] in
  let rng = Sim.Rng.create 23 in
  for _ = 1 to 3000 do
    let src, dst = links.(Sim.Rng.int rng (Array.length links)) in
    if Sim.Rng.int rng 8 = 0 then begin
      let ending =
        Keys.filter
          (function s :: d :: _ -> s = src && d = dst | _ -> false)
          !live
      in
      check Alcotest.int "abandon_link ends the link's live transfers"
        (Keys.cardinal ending)
        (Lsr.Flooding.abandon_link f ~src ~dst);
      live := Keys.diff !live ending
    end
    else begin
      let origin = Sim.Rng.int rng 4 and seq = Sim.Rng.int rng 8 in
      let repeat = Keys.mem [ src; origin; seq ] !sent in
      let before = Lsr.Flooding.messages_sent f in
      (match Lsr.Flooding.send f ~src ~dst (Lsr.Lsa.make ~origin ~seq ()) with
      | () ->
        check Alcotest.bool "a first send is accepted" false repeat;
        sent := Keys.add [ src; origin; seq ] !sent;
        live := Keys.add [ src; dst; origin; seq ] !live
      | exception Invalid_argument _ ->
        check Alcotest.bool "a second send is rejected" true repeat);
      check Alcotest.int "a first copy only on a first send"
        (if repeat then 0 else 1)
        (Lsr.Flooding.messages_sent f - before)
    end;
    check Alcotest.int "live transfers" (Keys.cardinal !live)
      (Lsr.Flooding.pending_retransmits f);
    check Alcotest.int "one timeout each" (Keys.cardinal !live)
      (Sim.Engine.pending engine)
  done;
  Sim.Engine.run engine;
  check Alcotest.int "every transfer ended" 0
    (Lsr.Flooding.pending_retransmits f);
  check Alcotest.int "abandoned after its budget"
    (Lsr.Flooding.messages_sent f)
    (abandoned engine)

(* A reliable flood takes its LSA once as well: flooding it again, or
   sending it from a switch that received it, raises before anything
   is counted or sent. *)
let test_second_flood_rejected () =
  let graph = Net.Topo_gen.line 3 in
  let f, engine, _ = make graph ~t_hop:1.0 in
  let lsa ~origin ~seq = Lsr.Lsa.make ~origin ~seq () in
  Lsr.Flooding.flood f (lsa ~origin:0 ~seq:0);
  Sim.Engine.run engine;
  let counts () =
    (Lsr.Flooding.floods_started f, Lsr.Flooding.messages_sent f)
  in
  let before = counts () in
  Alcotest.check_raises "flooded again"
    (Invalid_argument
       "Flooding.flood: LSA (origin 0, seq 0) already flooded, sent or \
        received at 0") (fun () -> Lsr.Flooding.flood f (lsa ~origin:0 ~seq:0));
  Alcotest.check_raises "sent after a flood"
    (Invalid_argument
       "Flooding.send: LSA (origin 0, seq 0) already flooded, sent or \
        received at 1") (fun () ->
      Lsr.Flooding.send f ~src:1 ~dst:2 (lsa ~origin:0 ~seq:0));
  check Alcotest.(pair int int) "nothing counted" before (counts ());
  check Alcotest.int "nothing sent" 0 (Sim.Engine.pending engine)

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
          Alcotest.test_case "duplicated unicast: delivered once in both modes"
            `Quick test_unicast_duplicates_delivered_once;
          Alcotest.test_case "giveup fires once when a crash window closes \
                              mid-backoff"
            `Quick test_giveup_once_crash_window_closes_mid_backoff;
          Alcotest.test_case "abandon_link cancels pending state exactly once"
            `Quick test_abandon_link_cancels_pending_once;
          Alcotest.test_case "abandon_link cancels only its own link" `Quick
            test_abandon_link_cancels_only_its_link;
          Alcotest.test_case "lossy flood allocation per message" `Quick
            test_lossy_flood_allocation_bound;
          Alcotest.test_case "lossy flood copies allocate no closures" `Quick
            test_lossy_flood_copies_allocation;
          Alcotest.test_case "reliable transfer arms no closure" `Quick
            test_reliable_transfer_arms_no_closure;
          Alcotest.test_case "a jittered flood allocates nothing per event"
            `Quick test_jittered_flood_allocates_nothing;
          Alcotest.test_case "stale retransmit after slot reuse" `Quick
            test_stale_retransmit_after_slot_reuse;
          Alcotest.test_case "a transfer awaiting its ack is not restarted"
            `Quick test_awaiting_transfer_not_restarted;
          Alcotest.test_case "a second reliable flood is rejected" `Quick
            test_second_flood_rejected;
        ] );
    ]
