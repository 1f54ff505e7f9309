(* Flight-recorder telemetry: Series bucketing against hand-computed
   oracles, the run report's reconfiguration episodes, the trace's
   counts reconciled with the registry's, Phase attribution, zero-cost
   disabled paths, per-domain Registry merging through the pool, and
   the registry's counters over a fixed set of runs, pinned. *)

open Alcotest

let feps = float 1e-9

(* ------------------------------------------------------------------ *)
(* Series: bucketing oracle *)

let line_exn series name =
  match
    List.find_opt
      (fun (l : Metrics.Series.line) -> l.l_name = name)
      (Metrics.Series.lines series)
  with
  | Some l -> l
  | None -> failf "no series line named %s" name

let test_series_bucketing () =
  let s = Metrics.Series.create ~bucket:0.5 ~cap:4 () in
  Metrics.Series.add s ~name:"x" ~time:0.2 1.0;
  Metrics.Series.add s ~name:"x" ~time:0.3 3.0;
  Metrics.Series.add s ~name:"x" ~time:0.6 5.0;
  let l = line_exn s "x" in
  check int "two buckets" 2 (List.length l.l_points);
  let b0 = List.nth l.l_points 0 in
  check int "bucket 0 index" 0 b0.p_bucket;
  check feps "bucket 0 start" 0.0 b0.p_time;
  check int "bucket 0 count" 2 b0.p_count;
  check feps "bucket 0 sum" 4.0 b0.p_sum;
  check feps "bucket 0 min" 1.0 b0.p_min;
  check feps "bucket 0 max" 3.0 b0.p_max;
  check feps "bucket 0 last" 3.0 b0.p_last;
  let b1 = List.nth l.l_points 1 in
  check int "bucket 1 index" 1 b1.p_bucket;
  check int "bucket 1 count" 1 b1.p_count;
  check feps "bucket 1 last" 5.0 b1.p_last

let test_series_eviction_and_late () =
  let s = Metrics.Series.create ~bucket:0.5 ~cap:4 () in
  Metrics.Series.add s ~name:"x" ~time:0.2 1.0;
  (* Bucket 4 shares slot 0 with bucket 0 in a cap-4 ring: the old
     bucket falls out of the window and must be counted as evicted. *)
  Metrics.Series.add s ~name:"x" ~time:2.2 7.0;
  (* Bucket 0 is now older than anything the window can hold. *)
  Metrics.Series.add s ~name:"x" ~time:0.4 9.0;
  let l = line_exn s "x" in
  check int "one eviction" 1 l.l_evicted;
  check int "one late sample" 1 l.l_late;
  check (list int) "retained buckets" [ 4 ]
    (List.map (fun (p : Metrics.Series.point) -> p.p_bucket) l.l_points);
  let b = List.nth l.l_points 0 in
  check int "evictor count" 1 b.p_count;
  check feps "evictor sum (late sample dropped)" 7.0 b.p_sum

let test_series_per_switch_keys () =
  let s = Metrics.Series.create ~bucket:1.0 ~cap:8 () in
  Metrics.Series.add s ~name:"x" ~switch:2 ~time:0.0 1.0;
  Metrics.Series.add s ~name:"x" ~time:0.0 2.0;
  Metrics.Series.add s ~name:"x" ~switch:1 ~time:0.0 3.0;
  let switches =
    List.map
      (fun (l : Metrics.Series.line) -> l.l_switch)
      (Metrics.Series.lines s)
  in
  (* Aggregate (no switch) first, then switches ascending. *)
  check
    (list (option int))
    "key order" [ None; Some 1; Some 2 ] switches

(* ------------------------------------------------------------------ *)
(* SLI: episode oracle *)

(* A dense stamp of four switches, as a trace stamp. *)
let stamp dense =
  {
    Sim.Trace.size = List.length dense;
    nonzero =
      Array.concat
        (List.mapi (fun x c -> if c = 0 then [||] else [| x; c |]) dense);
  }

let event_computation switch mc r =
  Sim.Trace.Compute_started
    { switch; mc; trigger = "event:join:both"; r = stamp r }

let originated ?(ev = "none") switch mc seq s =
  Sim.Trace.Lsa_originated
    { switch; mc; seq; ev; proposal = ev = "none"; stamp = stamp s }

let forwarded origin seq =
  Sim.Trace.Lsa_forwarded
    { src = origin; dst = origin + 1; origin; seq; retransmit = false }

let installed switch mc c =
  Sim.Trace.Topology_installed
    { switch; mc; r = stamp c; e = stamp c; c = stamp c; members = "";
      tree = "" }

(* MC a: switches 0-2 install it.  Event (0, 1) settles at 0.6, when
   switch 2 finally covers it (its install at 0.45 does not); event
   (1, 1), computed at 0.5 and announced at 0.52, starts before that
   and settles at 0.9, when switch 1 covers it: its crash is followed
   by a recovery, so it stays live.  The two are one episode.  Event
   (2, 1) at 3.0 is never covered: an unconverged episode to the
   trace's end, 4.0.  MC b: switches 0 and 3 install it; event (3, 1)
   settles when switch 0 covers it, since switch 3 crashed for good.
   b's control before its event and after its episode counts
   nowhere. *)
let entries =
  List.mapi
    (fun id (time, event) -> { Sim.Trace.id; parent = -1; time; event })
    [
      (0.0, event_computation 0 "a" [ 1; 0; 0; 0 ]);
      (0.4, originated 0 "a" 1 [ 1; 0; 0; 0 ]);
      (0.41, forwarded 0 1);
      (0.42, installed 0 "a" [ 1; 0; 0; 0 ]);
      (0.45, installed 2 "a" [ 0; 0; 0; 0 ]);
      (0.5, event_computation 1 "a" [ 1; 1; 0; 0 ]);
      (0.5, installed 1 "a" [ 1; 0; 0; 0 ]);
      (0.52, originated ~ev:"join" 1 "a" 1 [ 1; 1; 0; 0 ]);
      (0.6, installed 2 "a" [ 1; 0; 0; 0 ]);
      (0.8, installed 0 "a" [ 1; 1; 0; 0 ]);
      (0.85, installed 2 "a" [ 1; 1; 0; 0 ]);
      (0.9, installed 1 "a" [ 1; 1; 0; 0 ]);
      (1.0, Sim.Trace.Crash { switch = 1 });
      (1.2, Sim.Trace.Recover { switch = 1 });
      (1.9, originated 0 "b" 2 [ 0; 0; 0; 0 ]);
      (2.0, event_computation 3 "b" [ 0; 0; 0; 1 ]);
      (2.1, installed 3 "b" [ 0; 0; 0; 0 ]);
      (2.5, Sim.Trace.Crash { switch = 3 });
      (2.7, installed 0 "b" [ 0; 0; 0; 1 ]);
      (3.0, originated ~ev:"leave" 2 "a" 1 [ 1; 1; 1; 0 ]);
      (3.5, forwarded 2 1);
      (3.6, installed 0 "a" [ 1; 1; 0; 0 ]);
      (4.0, forwarded 0 2);
    ]

(* The report's [sli] section, read back from its dgmc-report/2 JSON. *)
let get conv k j =
  match Option.bind (Sim.Json.member k j) conv with
  | Some v -> v
  | None -> failf "sli: no %s" k

let sli_of entries =
  let archive =
    {
      Sim.Trace.a_emitted = List.length entries;
      a_dropped = 0;
      a_entries = entries;
    }
  in
  match Sim.Json.parse (Report.Run_report.json archive) with
  | Error e -> failf "report does not parse: %s" e
  | Ok report -> get Option.some "sli" report

let test_sli_episode_oracle () =
  let s = sli_of entries in
  let num = get Sim.Json.to_float and count = get Sim.Json.to_int in
  let expected =
    [
      ("a", 0.0, 0.9, Some 0.9, 2, 7, 3);
      ("a", 3.0, 4.0, None, 1, 1, 2);
      ("b", 2.0, 2.7, Some 0.7, 1, 2, 0);
    ]
  and episodes = get Sim.Json.to_list "episodes" s in
  check int "episodes" (List.length expected) (List.length episodes);
  List.iteri
    (fun i ((mc, start, stop, latency, events, installs, control), j) ->
      let what k = Printf.sprintf "episode %d %s" i k in
      check string (what "mc") mc (get Sim.Json.to_string "mc" j);
      check feps (what "start") start (num "start_s" j);
      check feps (what "end") stop (num "end_s" j);
      check (option feps) (what "latency (null: unconverged)") latency
        (Sim.Json.to_float (get Option.some "latency_s" j));
      check int (what "events") events (count "events" j);
      check int (what "installs") installs (count "installs" j);
      check int (what "control") control (count "control_msgs" j))
    (List.combine expected episodes);
  check int "unconverged" 1 (count "unconverged" s)

let test_sli_episode_summary_oracle () =
  let s = sli_of entries in
  let num = get Sim.Json.to_float and count = get Sim.Json.to_int in
  (* Latency over the converged episodes, [0.9; 0.7]; control over all,
     [3; 2; 0]. *)
  let dist k = get Option.some k s in
  check int "latency count" 2 (count "count" (dist "latency_s"));
  check feps "latency mean" 0.8 (num "mean" (dist "latency_s"));
  check feps "latency p50 (linear interpolation)" 0.8
    (num "p50" (dist "latency_s"));
  check feps "latency max" 0.9 (num "max" (dist "latency_s"));
  check int "control count" 3 (count "count" (dist "control_msgs"));
  check feps "control mean" (5.0 /. 3.0) (num "mean" (dist "control_msgs"));
  check feps "control max" 3.0 (num "max" (dist "control_msgs"))

(* ------------------------------------------------------------------ *)
(* Reconciliation: the trace against the registry *)

(* Four counts read from a run's trace alone must equal the registry's
   counts for the same run: every completed computation is a
   [Proposal_made], withdrawn ones marked; every MC flooding an
   [Lsa_originated] with an MC; every install a [Topology_installed]. *)
let reconcile what trace registry =
  let count p =
    List.length
      (List.filter
         (fun (e : Sim.Trace.entry) -> p e.event)
         (Sim.Trace.entries trace))
  in
  let total = Oracle.Registry.counter_total registry in
  List.iter
    (fun (name, counter, p) ->
      check int (what ^ ": " ^ name) (total counter) (count p))
    [
      ( "computations", "switch.computations",
        function Sim.Trace.Proposal_made _ -> true | _ -> false );
      ( "withdrawals", "switch.computations_withdrawn",
        function Sim.Trace.Proposal_made p -> p.withdrawn | _ -> false );
      ( "MC floodings", "protocol.mc_floodings",
        function Sim.Trace.Lsa_originated o -> o.mc <> "" | _ -> false );
      ( "installs", "switch.installs",
        function Sim.Trace.Topology_installed _ -> true | _ -> false );
    ]

let scenario_dir = List.find Sys.file_exists [ "../scenarios"; "scenarios" ]

let test_reconcile_scenarios () =
  Sys.readdir scenario_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dgmc")
  |> List.sort String.compare
  |> List.iter (fun file ->
         match Workload.Script.load (Filename.concat scenario_dir file) with
         | Error msg -> failf "%s: %s" file msg
         | Ok script ->
           let trace = Sim.Trace.create ()
           and metrics = Metrics.Registry.create () in
           Dgmc.Protocol.run (Workload.Script.build ~trace ~metrics script);
           reconcile file trace metrics)

let test_reconcile_figures () =
  List.iter
    (fun seed ->
      let cell name run =
        let trace = Sim.Trace.create ()
        and metrics = Metrics.Registry.create () in
        ignore (run ~trace ~metrics);
        reconcile (Printf.sprintf "%s seed %d" name seed) trace metrics
      in
      let bursty config ~trace ~metrics =
        Experiments.Harness.bursty_run ~trace ~metrics ~seed ~n:20 ~config
          ~members:10 ()
      in
      cell "fig6" (bursty Dgmc.Config.atm_lan);
      cell "fig7" (bursty Dgmc.Config.wan);
      cell "fig8" (fun ~trace ~metrics ->
          Experiments.Harness.poisson_run ~trace ~metrics ~seed ~n:20
            ~config:Dgmc.Config.atm_lan ~events:40 ~gap_rounds:50.0 ()))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Phase attribution *)

let test_phase_nesting () =
  let p = Metrics.Phase.create () in
  Metrics.Phase.enter p "outer";
  Metrics.Phase.enter p "inner";
  (* Many small blocks: attribution counts minor words, and one big
     array would go straight to the major heap. *)
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (ref 1.5))
  done;
  Metrics.Phase.leave p;
  Metrics.Phase.leave p;
  let rows = Metrics.Phase.snapshot p in
  check (list string) "rows sorted by name" [ "inner"; "outer" ]
    (List.map (fun (r : Metrics.Phase.row) -> r.r_name) rows);
  let inner = List.nth rows 0 and outer = List.nth rows 1 in
  check int "inner calls" 1 inner.r_calls;
  check int "outer calls" 1 outer.r_calls;
  (* Inclusive figures roll the child into the parent... *)
  check bool "outer wall >= inner wall" true
    (outer.r_wall_s >= inner.r_wall_s);
  check bool "outer alloc >= inner alloc" true
    (outer.r_minor_words >= inner.r_minor_words);
  (* ...and self = inclusive - children. *)
  check bool "outer self wall <= outer wall" true
    (outer.r_self_wall_s <= outer.r_wall_s);
  check bool "outer self alloc excludes inner array" true
    (outer.r_self_minor_words < inner.r_minor_words);
  check bool "inner allocated the refs" true (inner.r_minor_words >= 2000.0);
  check int "balanced" 0 (Metrics.Phase.unbalanced_leaves p)

let test_phase_unbalanced_leave () =
  let p = Metrics.Phase.create () in
  Metrics.Phase.leave p;
  check int "counted, not raised" 1 (Metrics.Phase.unbalanced_leaves p);
  (* Nothing was left open: a balanced pair adds no mismatch. *)
  Metrics.Phase.enter p "x";
  Metrics.Phase.leave p;
  check int "nothing open" 1 (Metrics.Phase.unbalanced_leaves p)

let test_phase_ambient () =
  let p = Metrics.Phase.create () in
  let seen = Oracle.Phase.with_ambient p (fun () -> Metrics.Phase.ambient ()) in
  check bool "ambient inside with_ambient" true (seen == p);
  check bool "restored after" true
    (Metrics.Phase.ambient () == Metrics.Phase.disabled)

(* ------------------------------------------------------------------ *)
(* Disabled telemetry allocates nothing *)

let test_disabled_zero_alloc () =
  let s = Metrics.Series.disabled in
  let p = Metrics.Phase.disabled in
  (* Warm up, then measure what Gc.allocated_bytes itself allocates (it
     boxes floats) so the loop's contribution comes out exact — the same
     harness test_trace uses for Sim.Trace.recordf. *)
  Metrics.Series.add s ~name:"warm" ~time:0.0 1.0;
  Metrics.Phase.enter p "warm";
  Metrics.Phase.leave p;
  let baseline =
    let a = Gc.allocated_bytes () in
    Gc.allocated_bytes () -. a
  in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to 1000 do
    Metrics.Series.add s ~name:"no series here" ~time:1.0 2.0;
    Metrics.Phase.enter p "no phase here";
    Metrics.Phase.leave p
  done;
  let allocated = Gc.allocated_bytes () -. a0 -. baseline in
  check (float 0.0) "zero bytes over 1000 disabled records" 0.0 allocated

let test_disabled_registry_any_domain () =
  (* Figure sweeps record into the shared disabled registry from worker
     domains: it must skip the owner check and allocate nothing there. *)
  let r = Metrics.Registry.disabled in
  let allocated =
    Domain.join
      (Domain.spawn (fun () ->
           let c = Metrics.Registry.counter r "no counter here" in
           Metrics.Registry.bump c;
           let baseline =
             let a = Gc.allocated_bytes () in
             Gc.allocated_bytes () -. a
           in
           let a0 = Gc.allocated_bytes () in
           for _ = 1 to 1000 do
             Metrics.Registry.bump c;
             Metrics.Registry.bump ~by:2 c
           done;
           Gc.allocated_bytes () -. a0 -. baseline))
  in
  check (float 0.0) "zero bytes over 1000 records from a worker domain" 0.0
    allocated;
  check bool "nothing recorded" true (Oracle.Registry.is_empty r)

(* A trace costs what its payloads cost to build.  On one domain, a
   traced Fig 6 burst (n = 100, seed 1) may allocate at most twice the
   minor words of the same run untraced.  Rendering every install, MC
   id and membership note through [Format] took 4.4 times.  With boxed
   entry records and dense stamps it took 2.60 times in the dev profile
   (166,821 -> 434,083 words) and 2.83 in release (146,100 -> 413,362).
   With the columnar store and sparse stamps it takes 1.56 in dev
   (166,668 -> 260,506) and 1.64 in release (145,947 -> 239,785).  The
   columns' chunks are allocated in the major heap, which minor words
   do not count.  Counting direct major allocations too
   ([Alloc.words_allocated]), the ratio went from 2.58 to 1.93 in dev
   and from 2.77 to 2.05 in release. *)
let test_trace_cost_bound () =
  let words trace =
    let before = Gc.minor_words () in
    ignore
      (Sys.opaque_identity
         (Experiments.Harness.bursty_run ?trace ~seed:1 ~n:100
            ~config:Dgmc.Config.atm_lan ~members:10 ()));
    Gc.minor_words () -. before
  in
  let plain = words None in
  let trace = Sim.Trace.create () in
  let traced = words (Some trace) in
  check bool "the run was traced" true (Sim.Trace.count trace > 1000);
  if traced > 2.0 *. plain then
    Alcotest.failf "traced run allocated %d minor words, over 2x the %d untraced"
      (int_of_float traced) (int_of_float plain)

(* ------------------------------------------------------------------ *)
(* Telemetry is transparent to the measured run *)

(* One [Protocol.create ~faults ~trace ~metrics] over lossy reliable
   flooding: the engine carries both sinks to every layer, so each layer
   leaves its own trace events and counters. *)
let check_wiring_reaches_every_layer () =
  let trace = Sim.Trace.create () in
  let metrics = Metrics.Registry.create () in
  let faults =
    Faults.Plan.create
      ~spec:(Oracle.Plan.spec "drop=0.2,dup=0.1,reorder=0.1") ~seed:3 ()
  in
  let config =
    { Dgmc.Config.atm_lan with flood_mode = Lsr.Flooding.Reliable }
  in
  let net =
    Dgmc.Protocol.create ~graph:(Net.Topo_gen.ring 8) ~config ~faults ~trace
      ~metrics ()
  in
  let mc = Dgmc.Mc_id.make Symmetric 1 in
  List.iter
    (fun sw -> Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:sw mc Both)
    [ 0; 3; 5 ];
  Dgmc.Protocol.run net;
  List.iter
    (fun (layer, cat) ->
      check bool
        (Printf.sprintf "%s records %s events" layer cat)
        true
        (Oracle.Trace.count_category trace cat > 0))
    [
      ("protocol", "flood");
      ("flooding", "forward");
      ("flooding", "deliver");
      ("switch", "compute");
      ("switch", "install");
      ("fault plan", "fault");
    ];
  let counters = (Metrics.Registry.snapshot metrics) in
  List.iter
    (fun prefix ->
      check bool (prefix ^ "* counters recorded") true
        (List.exists
           (fun ((k : Metrics.Registry.key), _) ->
             String.starts_with ~prefix k.name)
           counters))
    [ "protocol."; "switch."; "flood."; "faults." ];
  (* Each fact the registry counts is the fact the layer reports: the
     per-switch and per-source counters summed over their labels. *)
  let sum name =
    List.fold_left
      (fun acc ((k : Metrics.Registry.key), v) ->
        if String.equal k.name name then acc + v else acc)
      0 (Metrics.Registry.snapshot metrics)
  in
  let pairs (t : Dgmc.Protocol.totals) =
    [
      ("switch.computations", t.computations);
      ("switch.computations_withdrawn", t.computations_withdrawn);
      ("switch.proposals_flooded", t.proposals_flooded);
      ("switch.proposals_accepted", t.proposals_accepted);
      ("protocol.events", t.events);
      ("protocol.mc_floodings", t.mc_floodings);
      ("protocol.link_floodings", t.link_floodings);
      ("flood.messages", t.messages);
      ("flood.acks", t.acks);
      ("flood.retransmissions", t.retransmissions);
    ]
  in
  let check_faults () =
    let c = Faults.Plan.counters faults in
    List.iter
      (fun (name, v) -> check int (name ^ " matches the plan") v (sum name))
      [
        ("faults.transmissions", c.transmissions);
        ("faults.delivered", c.delivered);
        ("faults.dropped", c.dropped);
        ("faults.duplicated", c.duplicated);
        ("faults.reordered", c.reordered);
        ("faults.blocked_crash", c.blocked_crash);
        ("faults.blocked_partition", c.blocked_partition);
      ]
  in
  let first = Dgmc.Protocol.totals net in
  List.iter
    (fun (name, v) -> check int (name ^ " matches the totals") v (sum name))
    (pairs first);
  check_faults ();
  (* A reset restarts the totals; the registry keeps counting. *)
  Dgmc.Protocol.reset_counters net;
  let at = Sim.Engine.now (Dgmc.Protocol.engine net) in
  Dgmc.Protocol.schedule_join net ~at ~switch:1 mc Both;
  Dgmc.Protocol.schedule_leave net ~at ~switch:3 mc;
  Dgmc.Protocol.schedule_link_down net ~at 6 7;
  Dgmc.Protocol.run net;
  let second = Dgmc.Protocol.totals net in
  check int "the totals count only the second burst's events" 3 second.events;
  check bool "the second burst floods a link event" true
    (second.link_floodings > 0);
  List.iter2
    (fun (name, a) (_, b) ->
      check int (name ^ " counts both bursts") (a + b) (sum name))
    (pairs first) (pairs second);
  check_faults ()

(* A monitor attached with no trace argument still writes its violation
   notes into the trace the protocol was created with. *)
let check_monitor_writes_to_run_trace () =
  let trace = Sim.Trace.create () in
  let config =
    {
      Dgmc.Config.atm_lan with
      inject = Some Dgmc.Config.Skip_stale_sender_flag;
    }
  in
  let net =
    Dgmc.Protocol.create ~graph:(Net.Topo_gen.ring 4) ~config ~trace ()
  in
  let monitor = Check.Monitor.attach net in
  let mc = Dgmc.Mc_id.make Symmetric 1 in
  (* Two concurrent joins: without the stale-sender flag the switches
     end disagreeing, which the monitor's agreement law reports. *)
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:0 mc Both;
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:2 mc Both;
  Dgmc.Protocol.run net;
  Check.Monitor.check_terminal monitor;
  check bool "the injected bug violates a law" false
    (Check.Monitor.ok monitor);
  check int "one violation note per violation"
    (List.length (Check.Monitor.violations monitor))
    (Oracle.Trace.count_category trace "violation")

let test_harness_transparency () =
  let plain =
    Experiments.Harness.bursty_run ~seed:5 ~n:10 ~config:Dgmc.Config.atm_lan
      ~members:5 ()
  in
  let instrumented () =
    let trace = Sim.Trace.create () in
    let reg = Metrics.Registry.create () in
    let series = Metrics.Series.create ~bucket:1e-3 ~cap:64 () in
    let phase = Metrics.Phase.create () in
    let run =
      Oracle.Phase.with_ambient phase (fun () ->
          Experiments.Harness.bursty_run ~trace ~metrics:reg ~series ~seed:5
            ~n:10 ~config:Dgmc.Config.atm_lan ~members:5 ())
    in
    (run, Metrics.Series.lines series)
  in
  let run1, series1 = instrumented () in
  let run2, series2 = instrumented () in
  check bool "full telemetry never changes the measured run" true
    (plain = run1);
  check bool "instrumented runs agree with each other" true (run1 = run2);
  check
    (list string)
    "the series records only the calendar depth" [ "engine.queue_depth" ]
    (List.map (fun (l : Metrics.Series.line) -> l.l_name) series1);
  check bool "series content is deterministic" true (series1 = series2);
  check_wiring_reaches_every_layer ();
  check_monitor_writes_to_run_trace ()

(* ------------------------------------------------------------------ *)
(* Registry counters: every counter the layers record, pinned *)

(* Five bursts (n = 20, atm_lan, 10 members, seeds 1-4 then 1 again)
   recording into one registry.  Counters ride on simulated time, so
   each (name, switch) sum is exact; a counter added, dropped or moved
   by any layer shows as a diff against the fixture. *)
let test_registry_counters_pinned () =
  let registry = Metrics.Registry.create () in
  List.iter
    (fun seed ->
      ignore
        (Experiments.Harness.bursty_run ~metrics:registry ~seed ~n:20
           ~config:Dgmc.Config.atm_lan ~members:10 ()))
    [ 1; 2; 3; 4; 1 ];
  let line ((k : Metrics.Registry.key), v) =
    Printf.sprintf "%s %s %d" k.name
      (match k.switch with Some s -> string_of_int s | None -> "-")
      v
  in
  check (list string) "counters match fixtures/registry_counters.expected"
    (String.split_on_char '\n'
       (String.trim (Oracle.read_file "fixtures/registry_counters.expected")))
    (List.map line (Metrics.Registry.snapshot registry))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "series",
        [
          test_case "bucketing oracle" `Quick test_series_bucketing;
          test_case "eviction and late samples" `Quick
            test_series_eviction_and_late;
          test_case "per-switch keys ordered" `Quick
            test_series_per_switch_keys;
        ] );
      ( "sli",
        [
          test_case "episode oracle" `Quick test_sli_episode_oracle;
          test_case "episode summary oracle" `Quick
            test_sli_episode_summary_oracle;
        ] );
      ( "reconcile",
        [
          test_case "scenarios: trace counts equal registry" `Quick
            test_reconcile_scenarios;
          test_case "figure cells: trace counts equal registry" `Quick
            test_reconcile_figures;
        ] );
      ( "phase",
        [
          test_case "nesting and self attribution" `Quick test_phase_nesting;
          test_case "unbalanced leave is counted" `Quick
            test_phase_unbalanced_leave;
          test_case "ambient probe scoping" `Quick test_phase_ambient;
        ] );
      ( "cost",
        [
          test_case "disabled telemetry allocates nothing" `Quick
            test_disabled_zero_alloc;
          test_case "disabled registry records from any domain" `Quick
            test_disabled_registry_any_domain;
          test_case "traced burst allocates at most 2x untraced" `Quick
            test_trace_cost_bound;
        ] );
      ( "transparency",
        [
          test_case "telemetry never changes the run" `Quick
            test_harness_transparency;
        ] );
      ( "registry",
        [
          test_case "counters pinned" `Quick test_registry_counters_pinned;
        ] );
    ]
