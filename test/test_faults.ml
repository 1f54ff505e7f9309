(* Tests for the fault-injection layer (lib/faults): determinism of the
   seeded fault stream, counter/rate agreement on large samples, and the
   semantics of scheduled crash and partition windows. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Determinism *)

(* Drive a plan through a fixed pseudo-workload of transmissions and
   return everything observable. *)
let drive plan =
  let deliveries = ref [] in
  for i = 0 to 999 do
    let src = i mod 7 and dst = (i + 1) mod 7 in
    let now = float_of_int i *. 0.25 in
    let copies = Faults.Plan.transmit plan ~src ~dst ~now ~base_delay:1.0 in
    deliveries := (i, copies) :: !deliveries
  done;
  (List.rev !deliveries, Faults.Plan.counters plan)

let lossy_spec =
  {
    Faults.Plan.drop = 0.2;
    duplicate = 0.15;
    reorder = 0.1;
    reorder_span = 4.0;
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

(* ------------------------------------------------------------------ *)
(* Rates *)

let test_counters_match_rates () =
  let spec = { lossy_spec with drop = 0.3; duplicate = 0.2; reorder = 0.0 } in
  let plan = Faults.Plan.create ~spec ~seed:42 () in
  let n = 200_000 in
  for i = 0 to n - 1 do
    ignore
      (Faults.Plan.transmit plan ~src:0 ~dst:1 ~now:(float_of_int i)
         ~base_delay:1.0)
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

let test_transparent_plan_is_invisible () =
  let plan = Faults.Plan.create ~seed:1 () in
  for i = 0 to 99 do
    check
      Alcotest.(list (float 1e-9))
      "exactly the base delay" [ 2.5 ]
      (Faults.Plan.transmit plan ~src:0 ~dst:1 ~now:(float_of_int i)
         ~base_delay:2.5)
  done;
  let c = Faults.Plan.counters plan in
  check Alcotest.int "nothing dropped" 0 c.Faults.Plan.dropped;
  check Alcotest.(list int) "every fault counter is 0" [ 0; 0; 0; 0; 0 ]
    [ c.dropped; c.duplicated; c.reordered; c.blocked_crash;
      c.blocked_partition ]

(* ------------------------------------------------------------------ *)
(* Scheduled windows *)

let lost plan ~src ~dst ~now =
  Faults.Plan.transmit plan ~src ~dst ~now ~base_delay:1.0 = []

let test_partition_severs_both_ways () =
  let plan = Faults.Plan.create ~seed:3 () in
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
  check Alcotest.int "both blocks counted" 2 c.Faults.Plan.blocked_partition;
  check (Alcotest.float 1e-9) "quiescent after the window" 20.0
    (Faults.Plan.quiescent_after plan)

let test_crash_blocks_to_and_from () =
  let plan = Faults.Plan.create ~seed:3 () in
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

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let test_spec_round_trip () =
  let spec =
    {
      Faults.Plan.drop = 0.25;
      duplicate = 0.1;
      reorder = 0.05;
      reorder_span = 3.0;
      jitter = 0.75;
    }
  in
  (match Faults.Plan.spec_of_string (Faults.Plan.spec_to_string spec) with
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
    [ "drop=1.5"; "drop=-0.1"; "jitter=-1"; "banana=1"; "drop" ]

let () =
  Alcotest.run "faults"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same trace" `Quick
            test_same_seed_same_trace;
          Alcotest.test_case "different seed, different trace" `Quick
            test_different_seed_different_trace;
        ] );
      ( "rates",
        [
          Alcotest.test_case "counters match configured rates" `Quick
            test_counters_match_rates;
          Alcotest.test_case "transparent plan is invisible" `Quick
            test_transparent_plan_is_invisible;
        ] );
      ( "windows",
        [
          Alcotest.test_case "partition severs both ways" `Quick
            test_partition_severs_both_ways;
          Alcotest.test_case "crash blocks to and from" `Quick
            test_crash_blocks_to_and_from;
        ] );
      ( "spec",
        [ Alcotest.test_case "parse and render" `Quick test_spec_round_trip ] );
    ]
