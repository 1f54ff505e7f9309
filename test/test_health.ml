(* The link-health layer: detector timeouts, flap damping,
   configuration validation, and the full
   protocol-level loop — scripted link events as ground truth that the
   hello detectors must discover, within the configured bound and with
   zero false positives. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Detector *)

let test_k_missed_deadline () =
  let det =
    Health.Detector.create ~k:3 ~period:1.0 ~grace:0.5 ~start:0.0
  in
  check (Alcotest.float 1e-9) "deadline = start + k periods + grace" 3.5
    (Health.Detector.deadline det);
  check Alcotest.bool "not down just before the deadline" false
    (Health.Detector.down det ~now:3.49);
  check Alcotest.bool "down at the deadline" true
    (Health.Detector.down det ~now:3.5);
  (* An arrival pushes the deadline out. *)
  Health.Detector.note_arrival det ~now:2.0;
  check (Alcotest.float 1e-9) "deadline re-anchored on the arrival" 5.5
    (Health.Detector.deadline det);
  (* reset forgets accumulated silence. *)
  Health.Detector.reset det ~now:10.0;
  check Alcotest.bool "fresh after reset" false
    (Health.Detector.down det ~now:13.0)

(* ------------------------------------------------------------------ *)
(* Damping *)

let test_damping_lifecycle () =
  let cfg =
    { Health.Damping.penalty = 1.0; suppress = 2.5; reuse = 0.5; half_life = 2.0 }
  in
  let d = Health.Damping.create cfg in
  Health.Damping.flap d ~now:0.0;
  Health.Damping.flap d ~now:0.0;
  check Alcotest.bool "two rapid flaps stay under the threshold" false
    (Health.Damping.suppressed d ~now:0.0);
  Health.Damping.flap d ~now:0.0;
  check Alcotest.bool "third flap suppresses" true
    (Health.Damping.suppressed d ~now:0.0);
  (match Health.Damping.reuse_time d ~now:0.0 with
  | None -> Alcotest.fail "suppressed link must expose a reuse time"
  | Some rt ->
    (* 3.0 decaying to 0.5 with half-life 2: t = 2·log2(6) ≈ 5.17. *)
    check (Alcotest.float 1e-6) "analytic readmission instant"
      (2.0 *. Float.log2 6.0)
      rt;
    check Alcotest.bool "still suppressed before" true
      (Health.Damping.suppressed d ~now:(rt -. 0.01));
    check Alcotest.bool "readmitted after" false
      (Health.Damping.suppressed d ~now:(rt +. 0.01)))

(* ------------------------------------------------------------------ *)
(* Config validation *)

let test_config_validation () =
  let ok =
    Health.Config.make ~period:0.5 ~detector:3
      ~damping:
        {
          Health.Damping.penalty = 1.0;
          suppress = 3.0;
          reuse = 0.75;
          half_life = 4.0;
        }
      ~horizon:100.0 ()
  in
  (match Health.Config.validate ok with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid config rejected: %s" m);
  let rejected t =
    match Health.Config.validate t with Ok () -> false | Error _ -> true
  in
  check Alcotest.bool "non-positive period rejected" true
    (rejected { ok with Health.Config.period = 0.0 });
  check Alcotest.bool "negative grace rejected" true
    (rejected { ok with Health.Config.grace = -1.0 });
  check Alcotest.bool "reup < 1 rejected" true
    (rejected { ok with Health.Config.reup = 0 });
  check Alcotest.bool "suppress <= reuse rejected" true
    (rejected
       {
         ok with
         Health.Config.damping =
           Some
             {
               Health.Damping.penalty = 1.0;
               suppress = 0.5;
               reuse = 0.75;
               half_life = 4.0;
             };
       });
  check Alcotest.bool "non-positive horizon rejected" true
    (rejected { ok with Health.Config.horizon = 0.0 })

(* ------------------------------------------------------------------ *)
(* Protocol integration *)

let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

let health_cfg ?damping ~horizon () =
  Health.Config.make ~period:0.0005 ~detector:3 ?damping ~horizon ()

(* A grid conference; the harness downs a link at [t_down] as ground
   truth only, so the detectors must discover it. *)
let run_detection ?damping () =
  let graph = Net.Topo_gen.grid ~rows:3 ~cols:3 in
  let hc = health_cfg ?damping ~horizon:0.08 () in
  let config = { Dgmc.Config.atm_lan with Dgmc.Config.health = Some hc } in
  let metrics = Metrics.Registry.create () in
  let net = Dgmc.Protocol.create ~graph ~config ~metrics () in
  Dgmc.Protocol.join net ~switch:0 mc Dgmc.Member.Both;
  Dgmc.Protocol.join net ~switch:8 mc Dgmc.Member.Both;
  Dgmc.Protocol.schedule_link_down net ~at:0.02 4 5;
  Dgmc.Protocol.schedule_link_up net ~at:0.05 4 5;
  Dgmc.Protocol.run net;
  (net, metrics, hc)

let test_detection_within_bound_no_false_positives () =
  let net, metrics, hc = run_detection () in
  match Dgmc.Protocol.health_summary net with
  | None -> Alcotest.fail "health layer not engaged"
  | Some h ->
    check Alcotest.bool "both endpoints detected the failure" true
      (h.Dgmc.Link_health.h_detections >= 2);
    check Alcotest.int "no false positive on a clean schedule" 0
      h.Dgmc.Link_health.h_false_positives;
    check Alcotest.bool "recoveries observed" true
      (h.Dgmc.Link_health.h_recoveries >= 2);
    check (Alcotest.float 1e-9) "summary bound matches the config"
      (Health.Config.detect_bound hc) h.Dgmc.Link_health.h_bound;
    List.iter
      (fun l ->
        check Alcotest.bool "every detection within the configured bound"
          true
          (l <= h.Dgmc.Link_health.h_bound))
      h.Dgmc.Link_health.h_latencies;
    check Alcotest.bool "the MC reconverged over the detected topology" true
      (Dgmc.Protocol.divergence net mc = []);
    (* Hello traffic is mirrored into the registry. *)
    let snap = Metrics.Registry.snapshot metrics in
    let total name =
      List.fold_left
        (fun acc ((k : Metrics.Registry.key), v) ->
          if String.equal k.Metrics.Registry.name name then acc + v else acc)
        0 snap
    in
    check Alcotest.bool "hellos counted" true (total "health.hellos_sent" > 0);
    check Alcotest.int "detections mirrored"
      h.Dgmc.Link_health.h_detections
      (total "health.detections")

let test_health_run_deterministic () =
  let digest () =
    let net, _, _ = run_detection () in
    match Dgmc.Protocol.health_summary net with
    | None -> ""
    | Some h ->
      Format.asprintf "%d|%d|%d|%d|%a" h.Dgmc.Link_health.h_detections
        h.Dgmc.Link_health.h_recoveries h.Dgmc.Link_health.h_false_positives
        h.Dgmc.Link_health.h_hellos
        (Format.pp_print_list Format.pp_print_float)
        h.Dgmc.Link_health.h_latencies
  in
  let a = digest () and b = digest () in
  check Alcotest.bool "two identical runs, identical health telemetry" true
    (a <> "" && String.equal a b)

(* Hellos sense links, not switches: a scheduled crash or partition
   window would silence them over live links, so the protocol refuses
   health together with any window. *)
let create_with_plan schedule =
  let graph = Net.Topo_gen.ring 6 in
  let config =
    {
      Dgmc.Config.atm_lan with
      Dgmc.Config.flood_mode = Lsr.Flooding.Reliable;
      health = Some (health_cfg ~horizon:0.05 ());
    }
  in
  let faults =
    Faults.Plan.create
      ~spec:(Oracle.Plan.spec "drop=0.05,dup=0.1")
      ~seed:5 ()
  in
  schedule faults;
  Dgmc.Protocol.create ~graph ~config ~faults ()

let windows_rejected =
  Invalid_argument
    "Protocol.create: the link-health layer excludes crash and partition \
     windows"

let test_health_rejects_crash_window () =
  Alcotest.check_raises "crash window" windows_rejected (fun () ->
      ignore
        (create_with_plan (fun plan ->
             Faults.Plan.crash_switch plan ~switch:2 ~from_:0.01 ~until:0.02)))

let test_health_rejects_partition_window () =
  Alcotest.check_raises "partition window" windows_rejected (fun () ->
      ignore
        (create_with_plan (fun plan ->
             Faults.Plan.partition plan ~side:[ 0; 1; 2 ] ~from_:0.01
               ~until:0.02)))

let test_health_runs_window_free_plan () =
  let net = create_with_plan ignore in
  Dgmc.Protocol.join net ~switch:0 mc Dgmc.Member.Both;
  Dgmc.Protocol.join net ~switch:3 mc Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  match Dgmc.Protocol.health_summary net with
  | None -> Alcotest.fail "health layer not engaged"
  | Some h ->
    check Alcotest.bool "hellos on the wire" true (h.Dgmc.Link_health.h_hellos > 0);
    check Alcotest.bool "the MC converged" true
      (Dgmc.Protocol.divergence net mc = [])

(* Every registry counter of scenarios/hello_detect.dgmc (damped:
   detect, flap, suppress, readmit), one [name switch value] line each:
   the health layer's per-switch hellos, verdicts and suppressions are
   pinned, not only the summary lines. *)
let test_health_counters_pinned () =
  let script =
    match Workload.Script.load "../scenarios/hello_detect.dgmc" with
    | Ok s -> s
    | Error msg -> Alcotest.failf "hello_detect.dgmc: %s" msg
  in
  let metrics = Metrics.Registry.create () in
  Dgmc.Protocol.run (Workload.Script.build ~metrics script);
  let line ((k : Metrics.Registry.key), v) =
    Printf.sprintf "%s %s %d" k.name
      (match k.switch with Some s -> string_of_int s | None -> "-")
      v
  in
  check (Alcotest.list Alcotest.string)
    "counters match fixtures/health_counters.expected"
    (String.split_on_char '\n'
       (String.trim (Oracle.read_file "fixtures/health_counters.expected")))
    (List.map line (Metrics.Registry.snapshot metrics))

let () =
  Alcotest.run "health"
    [
      ( "detector",
        [
          Alcotest.test_case "k-missed deadline arithmetic" `Quick
            test_k_missed_deadline;
        ] );
      ( "damping",
        [
          Alcotest.test_case "suppress/reuse lifecycle" `Quick
            test_damping_lifecycle;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation rejects bad fields" `Quick
            test_config_validation;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "detection within bound, zero false positives"
            `Quick test_detection_within_bound_no_false_positives;
          Alcotest.test_case "byte-identical health telemetry across runs"
            `Quick test_health_run_deterministic;
          Alcotest.test_case "rejects a crash window" `Quick
            test_health_rejects_crash_window;
          Alcotest.test_case "rejects a partition window" `Quick
            test_health_rejects_partition_window;
          Alcotest.test_case "runs under a window-free plan" `Quick
            test_health_runs_window_free_plan;
          Alcotest.test_case "per-switch counters pinned" `Quick
            test_health_counters_pinned;
        ] );
    ]
