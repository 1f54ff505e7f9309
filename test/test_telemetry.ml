(* Flight-recorder telemetry: Series bucketing against hand-computed
   oracles, SLI sessionization, Phase attribution, zero-cost disabled
   paths, per-domain Registry merging through the pool, and the
   bench-diff regression gate. *)

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
(* SLI: sessionization oracle *)

(* Synthetic trace entries, one SLI role each: a local event's
   computation anchors a window, a proposal origination is control
   traffic, an install closes the window. *)
let anchor mc =
  Sim.Trace.Compute_started
    { switch = 0; mc; trigger = "event:join:both"; r = [||] }

let control mc =
  Sim.Trace.Lsa_originated
    { switch = 0; mc; seq = 0; ev = "none"; proposal = true; stamp = [||] }

let install mc =
  Sim.Trace.Topology_installed
    { switch = 0; mc; r = [||]; e = [||]; c = [||]; members = ""; tree = "" }

let entries =
  List.mapi
    (fun id (time, event) -> { Sim.Trace.id; parent = -1; time; event })
    [
      (* MC a: one converged window, then an unconverged one after a gap *)
      (0.0, anchor "a");
      (0.1, control "a");
      (0.2, control "a");
      (0.3, install "a");
      (5.0, anchor "a");
      (5.1, control "a");
      (* MC b: control before the anchor must not count *)
      (0.0, control "b");
      (0.1, anchor "b");
      (0.5, install "b");
      (0.9, install "b");
    ]

(* The report's [sli] section over [entries], read back from its
   dgmc-report/1 JSON. *)
type window = {
  w_mc : string;
  w_start : float;
  w_end : float;
  w_latency : float;
  w_anchors : int;
  w_installs : int;
  w_control : int;
}

type dist = { d_count : int; d_mean : float; d_p50 : float; d_p90 : float; d_max : float }

type summary = {
  s_windows : window list;
  s_latency : dist;
  s_control : dist;
  s_unconverged : int;
}

let sli ~gap entries =
  let get conv k j =
    match Option.bind (Sim.Json.member k j) conv with
    | Some v -> v
    | None -> failf "sli: no %s" k
  in
  let num = get Sim.Json.to_float and int = get Sim.Json.to_int in
  let dist j =
    {
      d_count = int "count" j;
      d_mean = num "mean" j;
      d_p50 = num "p50" j;
      d_p90 = num "p90" j;
      d_max = num "max" j;
    }
  in
  let window j =
    {
      w_mc = get Sim.Json.to_string "mc" j;
      w_start = num "start_s" j;
      w_end = num "end_s" j;
      w_latency = num "latency_s" j;
      w_anchors = int "anchors" j;
      w_installs = int "installs" j;
      w_control = int "control_msgs" j;
    }
  in
  let archive =
    { Sim.Trace.a_emitted = List.length entries; a_dropped = 0; a_entries = entries }
  in
  match Sim.Json.parse (Report.Run_report.json ~gap archive) with
  | Error e -> failf "report does not parse: %s" e
  | Ok report ->
    let s = get Option.some "sli" report in
    {
      s_windows = List.map window (get Sim.Json.to_list "windows" s);
      s_latency = dist (get Option.some "latency_s" s);
      s_control = dist (get Option.some "control_msgs" s);
      s_unconverged = int "unconverged" s;
    }

let latency w = w.w_latency

let converged w = w.w_installs > 0

let test_sli_windows_oracle () =
  let ws = (sli ~gap:1.0 entries).s_windows in
  check int "three windows" 3 (List.length ws);
  let w mc i =
    List.nth (List.filter (fun w -> String.equal w.w_mc mc) ws) i
  in
  let a0 = w "a" 0 in
  check feps "a0 start" 0.0 a0.w_start;
  check feps "a0 end" 0.3 a0.w_end;
  check int "a0 anchors" 1 a0.w_anchors;
  check int "a0 installs" 1 a0.w_installs;
  check int "a0 control" 2 a0.w_control;
  check feps "a0 latency" 0.3 (latency a0);
  let a1 = w "a" 1 in
  check bool "a1 unconverged" false (converged a1);
  check feps "a1 latency" 0.0 (latency a1);
  check int "a1 control" 1 a1.w_control;
  let b0 = w "b" 0 in
  check feps "b0 start (first anchor)" 0.1 b0.w_start;
  check feps "b0 end (last install)" 0.9 b0.w_end;
  check int "b0 installs" 2 b0.w_installs;
  check int "b0 control excludes pre-anchor" 0 b0.w_control

let test_sli_summary_oracle () =
  let s = sli ~gap:1.0 entries in
  check int "unconverged count" 1 s.s_unconverged;
  (* Latency over converged windows only: [0.3; 0.8]. *)
  check int "latency count" 2 s.s_latency.d_count;
  check feps "latency mean" 0.55 s.s_latency.d_mean;
  check feps "latency p50 (linear interpolation)" 0.55 s.s_latency.d_p50;
  check feps "latency p90" 0.75 s.s_latency.d_p90;
  check feps "latency max" 0.8 s.s_latency.d_max;
  (* Control over all windows: [2; 1; 0]. *)
  check int "control count" 3 s.s_control.d_count;
  check feps "control mean" 1.0 s.s_control.d_mean;
  check feps "control max" 2.0 s.s_control.d_max

let test_sli_of_scripted_run () =
  let trace = Sim.Trace.create () in
  ignore
    (Experiments.Harness.bursty_run ~trace ~seed:7 ~n:10
       ~config:Dgmc.Config.atm_lan ~members:5 ());
  let entries = Sim.Trace.entries trace in
  (* A gap wider than the whole run keeps each MC in one session, so
     window totals must equal whole-trace totals. *)
  let t1 = List.fold_left (fun m (e : Sim.Trace.entry) -> Float.max m e.time) 0.0 entries in
  let s = sli ~gap:(t1 +. 1.0) entries in
  check int "one window per MC" 1 (List.length s.s_windows);
  let w = List.nth s.s_windows 0 in
  check bool "burst converged" true (converged w);
  let installs_in_trace =
    List.length
      (List.filter
         (fun (e : Sim.Trace.entry) ->
           match e.event with
           | Sim.Trace.Topology_installed i -> i.mc <> ""
           | _ -> false)
         entries)
  in
  check int "window installs = trace installs" installs_in_trace w.w_installs;
  check bool "control messages counted" true (w.w_control > 0);
  check bool "positive latency" true (latency w > 0.0)

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
           Metrics.Registry.observe r "warm" 1.5;
           let baseline =
             let a = Gc.allocated_bytes () in
             Gc.allocated_bytes () -. a
           in
           let a0 = Gc.allocated_bytes () in
           for _ = 1 to 1000 do
             Metrics.Registry.bump c;
             Metrics.Registry.bump ~by:2 c;
             Metrics.Registry.observe r "no histogram here" 1.5
           done;
           Gc.allocated_bytes () -. a0 -. baseline))
  in
  check (float 0.0) "zero bytes over 1000 records from a worker domain" 0.0
    allocated;
  check bool "nothing recorded" true (Oracle.Registry.is_empty r)

(* A trace costs what its payloads cost to build.  On one domain, a
   traced Fig 6 burst (n = 100, seed 1) may allocate at most three times
   the minor words of the same run untraced.  Rendering every install,
   MC id and membership note through [Format] took 4.4 times; building
   them with [Buffer] and concatenation takes 1.75. *)
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
  if traced > 3.0 *. plain then
    Alcotest.failf "traced run allocated %d minor words, over 3x the %d untraced"
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
  let counters = (Metrics.Registry.snapshot metrics).counters in
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
      0 (Metrics.Registry.snapshot metrics).counters
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
(* Bench diff: the regression gate *)

let meta =
  { Metrics.Bench.commit = "test"; master_seed = 1; domains = 2; quick = true }

let section ?(cells = [ ("dgmc", 20, 1) ]) name seq =
  {
    Metrics.Bench.name;
    elapsed_s = seq /. 2.0;
    seq_estimate_s = seq;
    domains = 2;
    cells =
      List.map
        (fun (series, size, seed) ->
          { Metrics.Bench.series; size; seed; wall_s = seq })
        cells;
  }

(* The BENCH document [bench/main.exe --json] writes for [sections]. *)
let document sections =
  Oracle.with_temp_file (fun path ->
      Metrics.Bench.write ~path ~meta sections;
      Oracle.read_file path)

let diff ?(wall_tol = 0.10) baseline candidate =
  match
    Report.Bench_diff.compare_strings ~wall_tol ~baseline:(document baseline)
      ~candidate:(document candidate)
  with
  | Ok outcome -> outcome
  | Error msg -> failf "bench documents failed to parse: %s" msg

let test_bench_diff_self_compare () =
  let doc = [ section "fig6" 1.0; section "fig7" 2.0 ] in
  let outcome = diff doc doc in
  check bool "self-comparison passes" false (Report.Bench_diff.failed outcome)

let test_bench_diff_detects_regression () =
  let base = [ section "fig6" 1.0; section "fig7" 2.0 ] in
  let cand = [ section "fig6" 2.0; section "fig7" 4.0 ] in
  let outcome = diff base cand in
  check bool "2x wall regression fails the gate" true
    (Report.Bench_diff.failed outcome);
  let areas =
    List.filter_map
      (fun (f : Report.Bench_diff.finding) ->
        if f.severity = Report.Bench_diff.Fail then Some f.area else None)
      outcome.findings
  in
  check bool "total gated" true (List.mem "total" areas);
  check bool "each section gated" true
    (List.mem "section fig6" areas && List.mem "section fig7" areas)

let test_bench_diff_missing_section () =
  let base = [ section "fig6" 1.0; section "fig7" 2.0 ] in
  let cand = [ section "fig6" 1.0 ] in
  let outcome = diff base cand in
  check bool "missing section is structural" true
    (Report.Bench_diff.failed outcome);
  check bool "the right section is named" true
    (List.exists
       (fun (f : Report.Bench_diff.finding) ->
         f.severity = Report.Bench_diff.Fail
         && f.area = "section fig7"
         && f.detail = "missing from candidate")
       outcome.findings)

let test_bench_diff_cell_set_exact () =
  let base = [ section ~cells:[ ("dgmc", 20, 1); ("dgmc", 20, 2) ] "fig6" 1.0 ] in
  let cand = [ section ~cells:[ ("dgmc", 20, 1); ("dgmc", 40, 2) ] "fig6" 1.0 ] in
  check bool "cell identity change fails even inside wall tolerance" true
    (Report.Bench_diff.failed (diff base cand))

let test_bench_diff_tolerance_boundary () =
  let base = [ section "fig6" 1.0 ] in
  let within = [ section "fig6" 1.05 ] in
  let beyond = [ section "fig6" 1.2 ] in
  check bool "+5% within a 10% tolerance" false
    (Report.Bench_diff.failed (diff base within));
  check bool "+20% beyond a 10% tolerance" true
    (Report.Bench_diff.failed (diff base beyond));
  check bool "+20% within a widened tolerance" false
    (Report.Bench_diff.failed (diff ~wall_tol:0.25 base beyond))

let test_bench_diff_floor_small_section () =
  check bool "+20% on a 0.02 s section is under the 0.05 s floor" false
    (Report.Bench_diff.failed
       (diff [ section "fig6" 0.02 ] [ section "fig6" 0.024 ]))

let test_bench_diff_floor_large_section () =
  check bool "+20% on a 1 s section is over the 0.05 s floor" true
    (Report.Bench_diff.failed
       (diff [ section "fig6" 1.0 ] [ section "fig6" 1.2 ]))

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
          test_case "window oracle" `Quick test_sli_windows_oracle;
          test_case "summary oracle" `Quick test_sli_summary_oracle;
          test_case "scripted run reduction" `Quick test_sli_of_scripted_run;
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
          test_case "traced burst allocates at most 3x untraced" `Quick
            test_trace_cost_bound;
        ] );
      ( "transparency",
        [
          test_case "telemetry never changes the run" `Quick
            test_harness_transparency;
        ] );
      ( "bench-diff",
        [
          test_case "self-comparison passes" `Quick
            test_bench_diff_self_compare;
          test_case "2x regression detected" `Quick
            test_bench_diff_detects_regression;
          test_case "missing section fails" `Quick
            test_bench_diff_missing_section;
          test_case "cell sets compare exactly" `Quick
            test_bench_diff_cell_set_exact;
          test_case "wall tolerance boundary" `Quick
            test_bench_diff_tolerance_boundary;
          test_case "wall floor passes a small section" `Quick
            test_bench_diff_floor_small_section;
          test_case "wall floor still fails a large section" `Quick
            test_bench_diff_floor_large_section;
        ] );
    ]
