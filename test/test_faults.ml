(* Tests for the fault-injection layer (lib/faults): determinism of the
   seeded fault stream, counter/rate agreement on large samples, and the
   semantics of scheduled crash and partition windows. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Determinism *)

(* The delays of the copies one transmission delivers ([] = lost). *)
let copies ?(base_delay = 1.0) plan ~src ~dst ~now =
  let delays = Array.make 2 Float.nan in
  let k = Faults.Plan.transmit plan ~src ~dst ~now ~base_delay delays in
  Array.to_list (Array.sub delays 0 k)

(* Drive a plan through a fixed pseudo-workload of transmissions and
   return everything observable. *)
let drive plan =
  let deliveries = ref [] in
  for i = 0 to 999 do
    let src = i mod 7 and dst = (i + 1) mod 7 in
    let now = float_of_int i *. 0.25 in
    deliveries := (i, copies plan ~src ~dst ~now) :: !deliveries
  done;
  (List.rev !deliveries, Faults.Plan.counters plan)

let lossy_spec =
  {
    Faults.Plan.drop = 0.2;
    duplicate = 0.15;
    reorder = 0.1;
    jitter = 0.5;
  }

let test_same_seed_same_trace () =
  let run () = drive (Faults.Plan.create ~spec:lossy_spec ~seed:7 ()) in
  let d1, c1 = run () in
  let d2, c2 = run () in
  check Alcotest.bool "identical delivery decisions" true (d1 = d2);
  check Alcotest.bool "identical counters" true (c1 = c2);
  check Alcotest.bool "faults actually fired" true
    (c1.Faults.Plan.dropped > 0 && c1.duplicated > 0 && c1.reordered > 0)

let test_different_seed_different_trace () =
  let d1, _ = drive (Faults.Plan.create ~spec:lossy_spec ~seed:7 ()) in
  let d2, _ = drive (Faults.Plan.create ~spec:lossy_spec ~seed:8 ()) in
  check Alcotest.bool "seeds decorrelate the stream" true (d1 <> d2)

(* The first 40 decisions of [drive] under [lossy_spec], seed 7, with a
   crash window (switch 3, [2, 4)) and a partition window ([0; 1],
   [6, 8)) among them, and the counters of all 1000, recorded from the
   list-returning implementation.  A reordered or added draw shifts
   every later decision, which a comparison of two runs of the same
   code cannot see.  Delays are hexadecimal floats, compared exactly. *)
let test_pinned_stream () =
  let plan = Faults.Plan.create ~spec:lossy_spec ~seed:7 () in
  Faults.Plan.crash_switch plan ~switch:3 ~from_:2.0 ~until:4.0;
  Faults.Plan.partition plan ~side:[ 0; 1 ] ~from_:6.0 ~until:8.0;
  let decisions, c = drive plan in
  let expected =
    [
      [ 0x1.734c20405d589p+0; 0x1.39e99db3350f1p+0 ];
      [ 0x1.112f603d4ca83p+0 ];
      [];
      [ 0x1.6e97cd9685af8p+0 ];
      [ 0x1.4f3f5807264e5p+0 ];
      [ 0x1.2c16b38bd48e9p+0; 0x1.73866b6faea4ep+0 ];
      [];
      [ 0x1.8257b66883064p+1 ];
      [ 0x1.42d2ebda291f2p+2 ];
      [];
      [];
      [ 0x1.526a782444e9p+0 ];
      [ 0x1.0522f9435cf3ep+0; 0x1.440721f6aed4dp+0 ];
      [ 0x1.55d55c48cf649p+0 ];
      [];
      [ 0x1.3fd2d270627a2p+0 ];
      [ 0x1.2d774548e0808p+0 ];
      [ 0x1.3b51ef622932ep+0 ];
      [ 0x1.7e137cf4e3ee1p+0 ];
      [ 0x1.4376fa7acfbcbp+0; 0x1.53e4967887a5ep+0 ];
      [ 0x1.43a3ecfdcde22p+0 ];
      [ 0x1.62737cd3d82bbp+0 ];
      [];
      [ 0x1.6a888a4188f8dp+0 ];
      [ 0x1.3884c6e11c249p+0; 0x1.5909bcfe3f1c8p+0 ];
      [];
      [ 0x1.ed22edc5e3d52p+0 ];
      [];
      [ 0x1.5ad8a30d6cc2ep+0 ];
      [];
      [ 0x1.7d5741d02bfabp+0 ];
      [ 0x1.52583595eb6e5p+0 ];
      [ 0x1.7da785db7812cp+0 ];
      [ 0x1.4e8fcfaa7f2e3p+0 ];
      [ 0x1.15ce76e23f642p+0 ];
      [ 0x1.320e36bb6aaaep+0 ];
      [ 0x1.59255f7a1d97ap+0 ];
      [];
      [ 0x1.1e1aaf0d9ff4fp+0 ];
      [];
    ]
  in
  List.iteri
    (fun i want ->
      let got = List.assoc i decisions in
      if not (List.equal Float.equal want got) then
        Alcotest.failf "decision %d: expected [%s], got [%s]" i
          (String.concat "; " (List.map (Printf.sprintf "%h") want))
          (String.concat "; " (List.map (Printf.sprintf "%h") got)))
    expected;
  check
    Alcotest.(list (pair string int))
    "counters"
    [
      ("transmissions", 1000);
      ("delivered", 918);
      ("dropped", 197);
      ("duplicated", 119);
      ("reordered", 78);
      ("blocked_crash", 2);
      ("blocked_partition", 2);
    ]
    [
      ("transmissions", c.Faults.Plan.transmissions);
      ("delivered", c.delivered);
      ("dropped", c.dropped);
      ("duplicated", c.duplicated);
      ("reordered", c.reordered);
      ("blocked_crash", c.blocked_crash);
      ("blocked_partition", c.blocked_partition);
    ]

(* ------------------------------------------------------------------ *)
(* Rates *)

let test_counters_match_rates () =
  let spec = { lossy_spec with drop = 0.3; duplicate = 0.2; reorder = 0.0 } in
  let plan = Faults.Plan.create ~spec ~seed:42 () in
  let n = 200_000 in
  let delays = Array.make 2 0.0 in
  for i = 0 to n - 1 do
    ignore
      (Faults.Plan.transmit plan ~src:0 ~dst:1 ~now:(float_of_int i)
         ~base_delay:1.0 delays)
  done;
  let c = Faults.Plan.counters plan in
  let rate count = float_of_int count /. float_of_int n in
  check Alcotest.int "every call counted" n c.Faults.Plan.transmissions;
  check (Alcotest.float 0.01) "drop rate" 0.3 (rate c.dropped);
  (* Duplication only applies to transmissions that survive the drop. *)
  check (Alcotest.float 0.01) "duplicate rate" (0.2 *. 0.7) (rate c.duplicated);
  check Alcotest.int "delivered = kept + duplicates"
    (n - c.dropped + c.duplicated)
    c.delivered

(* Without jitter a reordered copy's delay is the base delay plus its
   hold-back, drawn from [0, 4 x base delay): over a seeded sample every
   hold-back lies there, and the largest comes close to the bound. *)
let test_reorder_hold_back_bounded () =
  let spec =
    { Faults.Plan.drop = 0.0; duplicate = 0.0; reorder = 0.5; jitter = 0.0 }
  in
  let plan = Faults.Plan.create ~spec ~seed:11 () in
  let held = ref 0 and widest = ref 0.0 in
  List.iter
    (fun base_delay ->
      for i = 0 to 999 do
        List.iter
          (fun d ->
            let extra = d -. base_delay in
            if not (extra >= 0.0 && extra < 4.0 *. base_delay) then
              Alcotest.failf "hold-back %h outside [0, 4 x %h)" extra
                base_delay;
            if extra > 0.0 then begin
              incr held;
              widest := Float.max !widest (extra /. base_delay)
            end)
          (copies plan ~src:0 ~dst:1 ~now:(float_of_int i) ~base_delay)
      done)
    [ 1.0; 0.004; 2.5 ];
  check Alcotest.int "every reordered copy is held back"
    (Faults.Plan.counters plan).Faults.Plan.reordered !held;
  check Alcotest.bool "the widest hold-back nears 4 base delays" true
    (!widest > 3.9)

let test_transparent_plan_is_invisible () =
  let plan = Faults.Plan.create ~spec:Oracle.Plan.transparent ~seed:1 () in
  for i = 0 to 99 do
    check
      Alcotest.(list (float 1e-9))
      "exactly the base delay" [ 2.5 ]
      (copies plan ~src:0 ~dst:1 ~now:(float_of_int i) ~base_delay:2.5)
  done;
  let c = Faults.Plan.counters plan in
  check Alcotest.int "nothing dropped" 0 c.Faults.Plan.dropped;
  check Alcotest.(list int) "every fault counter is 0" [ 0; 0; 0; 0; 0 ]
    [ c.dropped; c.duplicated; c.reordered; c.blocked_crash;
      c.blocked_partition ]

(* An untraced fault decision allocates nothing where [Sim.Rng.float]
   is inlined into the plan.  In dune's dev profile every draw's result
   and every computed draw bound is a boxed float: a few words a call,
   against about 64 for the list-returning implementation.  The times
   are boxed before the measurement, as the engine's clock is. *)
let test_transmit_allocates_nothing () =
  let calls = 1000 in
  let times = Array.init calls (fun i -> ref (float_of_int i *. 0.01)) in
  let delays = Array.make 2 0.0 in
  let per_call plan =
    let w =
      Alloc.words_allocated (fun () ->
          let copies = ref 0 in
          for i = 0 to calls - 1 do
            copies :=
              !copies
              + Faults.Plan.transmit plan ~src:(i mod 7) ~dst:((i + 1) mod 7)
                  ~now:!(times.(i)) ~base_delay:1.0 delays
          done;
          !copies)
    in
    w /. float_of_int calls
  in
  let limit = if Alloc.cross_module_inlining then 0.0 else 12.0 in
  let bounded label plan =
    let w = per_call plan in
    if w > limit then
      (* dgmc-analyze: allow float-format — test failure message *)
      Alcotest.failf "%s: %.2f words per transmit (limit %.0f)" label w limit
  in
  bounded "no windows" (Faults.Plan.create ~spec:lossy_spec ~seed:7 ());
  let plan = Faults.Plan.create ~spec:lossy_spec ~seed:7 () in
  Faults.Plan.crash_switch plan ~switch:3 ~from_:2.0 ~until:4.0;
  Faults.Plan.partition plan ~side:[ 0; 1 ] ~from_:6.0 ~until:8.0;
  bounded "active windows" plan;
  let c = Faults.Plan.counters plan in
  check Alcotest.bool "both windows blocked transmissions" true
    (c.Faults.Plan.blocked_crash > 0 && c.blocked_partition > 0)

(* ------------------------------------------------------------------ *)
(* Scheduled windows *)

let lost plan ~src ~dst ~now = copies plan ~src ~dst ~now = []

let test_partition_severs_both_ways () =
  let plan = Faults.Plan.create ~spec:Oracle.Plan.transparent ~seed:3 () in
  Faults.Plan.partition plan ~side:[ 0; 1 ] ~from_:10.0 ~until:20.0;
  (* Inside the window: side <-> rest blocked in both directions. *)
  check Alcotest.bool "side -> rest blocked" true
    (lost plan ~src:0 ~dst:5 ~now:15.0);
  check Alcotest.bool "rest -> side blocked" true
    (lost plan ~src:5 ~dst:0 ~now:15.0);
  (* Within one side, traffic flows. *)
  check Alcotest.bool "within side ok" false (lost plan ~src:0 ~dst:1 ~now:15.0);
  check Alcotest.bool "within rest ok" false (lost plan ~src:4 ~dst:5 ~now:15.0);
  (* Outside the window, everything flows. *)
  check Alcotest.bool "before window ok" false (lost plan ~src:0 ~dst:5 ~now:9.9);
  check Alcotest.bool "after window ok" false (lost plan ~src:5 ~dst:0 ~now:20.0);
  let c = Faults.Plan.counters plan in
  check Alcotest.int "both blocks counted" 2 c.Faults.Plan.blocked_partition

let test_crash_blocks_to_and_from () =
  let plan = Faults.Plan.create ~spec:Oracle.Plan.transparent ~seed:3 () in
  Faults.Plan.crash_switch plan ~switch:2 ~from_:5.0 ~until:8.0;
  check Alcotest.bool "to the crashed switch" true
    (lost plan ~src:0 ~dst:2 ~now:6.0);
  check Alcotest.bool "from the crashed switch" true
    (lost plan ~src:2 ~dst:0 ~now:6.0);
  check Alcotest.bool "bystanders unaffected" false
    (lost plan ~src:0 ~dst:1 ~now:6.0);
  check Alcotest.bool "recovers at window close" false
    (lost plan ~src:0 ~dst:2 ~now:8.0);
  check Alcotest.int "blocks counted" 2
    (Faults.Plan.counters plan).Faults.Plan.blocked_crash

(* A traced plan marks its windows on the engine's timeline, in
   scheduling order, crashes first; an untraced one schedules nothing. *)
let test_windows_marked_when_traced () =
  let plan () =
    let plan = Faults.Plan.create ~spec:Oracle.Plan.transparent ~seed:3 () in
    Faults.Plan.partition plan ~side:[ 3; 1 ] ~from_:10.0 ~until:20.0;
    Faults.Plan.crash_switch plan ~switch:2 ~from_:5.0 ~until:8.0;
    Faults.Plan.partition plan ~side:[ 0 ] ~from_:1.0 ~until:2.0;
    plan
  in
  let untraced = Sim.Engine.create () in
  Faults.Plan.instrument (plan ()) untraced;
  check Alcotest.int "untraced: nothing scheduled" 0
    (Sim.Engine.pending untraced);
  let trace = Sim.Trace.create () in
  let engine = Sim.Engine.create ~trace () in
  Faults.Plan.instrument (plan ()) engine;
  Sim.Engine.run engine;
  let mark (e : Sim.Trace.entry) =
    Printf.sprintf "%.17g %s" e.time
      (match e.event with
      | Sim.Trace.Crash { switch } -> Printf.sprintf "crash %d" switch
      | Sim.Trace.Recover { switch } -> Printf.sprintf "recover %d" switch
      | Sim.Trace.Note { category; message } -> category ^ ": " ^ message
      | _ -> "other")
  in
  check
    Alcotest.(list string)
    "marks in time order"
    [
      "1 partition: partition {0} begins";
      "2 partition: partition {0} heals";
      "5 crash 2";
      "8 recover 2";
      "10 partition: partition {1,3} begins";
      "20 partition: partition {1,3} heals";
    ]
    (List.map mark (Sim.Trace.entries trace))

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let test_spec_round_trip () =
  let spec =
    {
      Faults.Plan.drop = 0.25;
      duplicate = 0.1;
      reorder = 0.05;
      jitter = 0.75;
    }
  in
  let text = Faults.Plan.spec_to_string spec in
  check Alcotest.string "rendering" "drop=0.25,dup=0.1,reorder=0.05,jitter=0.75"
    text;
  (match Faults.Plan.spec_of_string text with
  | Ok spec' -> check Alcotest.bool "round trip" true (spec = spec')
  | Error m -> Alcotest.failf "round trip failed: %s" m);
  (match Faults.Plan.spec_of_string "drop=0.3" with
  | Ok s ->
    check (Alcotest.float 1e-9) "other keys default" 0.0 s.Faults.Plan.jitter
  | Error m -> Alcotest.failf "partial spec rejected: %s" m);
  List.iter
    (fun bad ->
      match Faults.Plan.spec_of_string bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [
      "drop=1.5"; "drop=-0.1"; "jitter=-1"; "banana=1"; "drop"; "span=4";
      "duplicate=0.1"; "drop=0.1;dup=0.1";
    ]

let () =
  Alcotest.run "faults"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same trace" `Quick
            test_same_seed_same_trace;
          Alcotest.test_case "different seed, different trace" `Quick
            test_different_seed_different_trace;
          Alcotest.test_case "pinned stream" `Quick test_pinned_stream;
        ] );
      ( "rates",
        [
          Alcotest.test_case "counters match configured rates" `Quick
            test_counters_match_rates;
          Alcotest.test_case "reorder hold-back within 4 base delays" `Quick
            test_reorder_hold_back_bounded;
          Alcotest.test_case "transparent plan is invisible" `Quick
            test_transparent_plan_is_invisible;
          Alcotest.test_case "untraced transmit allocates nothing" `Quick
            test_transmit_allocates_nothing;
        ] );
      ( "windows",
        [
          Alcotest.test_case "partition severs both ways" `Quick
            test_partition_severs_both_ways;
          Alcotest.test_case "windows marked when traced" `Quick
            test_windows_marked_when_traced;
          Alcotest.test_case "crash blocks to and from" `Quick
            test_crash_blocks_to_and_from;
        ] );
      ( "spec",
        [ Alcotest.test_case "parse and render" `Quick test_spec_round_trip ] );
    ]
