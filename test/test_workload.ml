(* Tests for the workload generators (lib/workload). *)

let check = Alcotest.check

let mc_sym = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

let mc_recv = Dgmc.Mc_id.make Dgmc.Mc_id.Receiver_only 2

let mc_asym = Dgmc.Mc_id.make Dgmc.Mc_id.Asymmetric 3

let joined_switches events =
  List.filter_map
    (fun (e : Workload.Events.t) ->
      match e.action with
      | Workload.Events.Join { switch; _ } -> Some switch
      | _ -> None)
    events

(* ------------------------------------------------------------------ *)
(* Events utilities *)

let test_events_sort_stable () =
  let mk time tag =
    {
      Workload.Events.time;
      action = Workload.Events.Join { switch = tag; mc = mc_sym; role = Dgmc.Member.Both };
    }
  in
  let sorted = Workload.Events.sort [ mk 2.0 0; mk 1.0 1; mk 2.0 2 ] in
  check Alcotest.(list int) "stable time sort" [ 1; 0; 2 ] (joined_switches sorted)

let test_events_counts_and_span () =
  let events =
    [
      { Workload.Events.time = 1.0; action = Workload.Events.Link_down (0, 1) };
      {
        Workload.Events.time = 3.0;
        action = Workload.Events.Join { switch = 2; mc = mc_sym; role = Dgmc.Member.Both };
      };
      { Workload.Events.time = 6.0; action = Workload.Events.Leave { switch = 2; mc = mc_sym } };
    ]
  in
  check Alcotest.int "count" 3 (Workload.Events.count events)

let test_events_apply_dgmc () =
  let graph = Net.Topo_gen.grid ~rows:3 ~cols:3 in
  let net = Dgmc.Protocol.create ~graph ~config:Dgmc.Config.atm_lan () in
  let events =
    [
      {
        Workload.Events.time = 0.0;
        action = Workload.Events.Join { switch = 0; mc = mc_sym; role = Dgmc.Member.Both };
      };
      {
        Workload.Events.time = 1.0;
        action = Workload.Events.Join { switch = 8; mc = mc_sym; role = Dgmc.Member.Both };
      };
    ]
  in
  Workload.Events.apply_dgmc net events;
  Dgmc.Protocol.run net;
  check Alcotest.bool "scenario converges" true (Dgmc.Protocol.converged net mc_sym);
  let m = Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 4) mc_sym) in
  check Alcotest.(list int) "both joined" [ 0; 8 ] (Dgmc.Member.ids m)

(* ------------------------------------------------------------------ *)
(* Bursty *)

let test_bursty_joins_shape () =
  let rng = Sim.Rng.create 1 in
  let events = Workload.Bursty.joins rng ~n:30 ~mc:mc_sym ~members:10 ~window:5.0 () in
  check Alcotest.int "event count" 10 (List.length events);
  let switches = joined_switches events in
  check Alcotest.int "distinct switches" 10
    (List.length (List.sort_uniq Int.compare switches));
  List.iter
    (fun (e : Workload.Events.t) ->
      if e.time < 0.0 || e.time >= 5.0 then Alcotest.failf "outside window: %.17g" e.time)
    events;
  (* Sorted by time. *)
  let times = List.map (fun (e : Workload.Events.t) -> e.time) events in
  check Alcotest.bool "sorted" true (List.equal Float.equal (List.sort Float.compare times) times)

let test_bursty_roles_by_kind () =
  let roles mc =
    let rng = Sim.Rng.create 2 in
    Workload.Bursty.joins rng ~n:20 ~mc ~members:5 ~window:1.0 ()
    |> List.filter_map (fun (e : Workload.Events.t) ->
           match e.action with
           | Workload.Events.Join { role; _ } -> Some role
           | _ -> None)
  in
  check Alcotest.bool "symmetric all Both" true
    (List.for_all (fun r -> r = Dgmc.Member.Both) (roles mc_sym));
  check Alcotest.bool "receiver-only all Receiver" true
    (List.for_all (fun r -> r = Dgmc.Member.Receiver) (roles mc_recv));
  let asym = roles mc_asym in
  check Alcotest.int "asymmetric has one sender" 1
    (List.length (List.filter (fun r -> r = Dgmc.Member.Sender) asym))

let test_bursty_validation () =
  let rng = Sim.Rng.create 5 in
  Alcotest.check_raises "too many members"
    (Invalid_argument "Bursty.joins: bad member count") (fun () ->
      ignore (Workload.Bursty.joins rng ~n:5 ~mc:mc_sym ~members:6 ~window:1.0 ()))

let test_bursty_churn () =
  let rng = Sim.Rng.create 6 in
  let current = [ 0; 1; 2; 3 ] in
  let events =
    Oracle.Bursty.churn rng ~current ~n:20 ~mc:mc_sym ~joins:3 ~leaves:2
      ~window:1.0 ()
  in
  check Alcotest.int "total events" 5 (List.length events);
  let leavers =
    List.filter_map
      (fun (e : Workload.Events.t) ->
        match e.action with
        | Workload.Events.Leave { switch; _ } -> Some switch
        | _ -> None)
      events
  in
  check Alcotest.int "leaves" 2 (List.length leavers);
  List.iter
    (fun l -> check Alcotest.bool "leaver was a member" true (List.mem l current))
    leavers;
  let joiners = joined_switches events in
  check Alcotest.int "joins" 3 (List.length joiners);
  List.iter
    (fun j ->
      check Alcotest.bool "joiner was not a member" true (not (List.mem j current)))
    joiners

let test_bursty_churn_validation () =
  let rng = Sim.Rng.create 7 in
  Alcotest.check_raises "too many leaves"
    (Invalid_argument "Bursty.churn: more leaves than members") (fun () ->
      ignore
        (Oracle.Bursty.churn rng ~current:[ 0 ] ~n:5 ~mc:mc_sym ~joins:0
           ~leaves:2 ~window:1.0 ()))

(* ------------------------------------------------------------------ *)
(* Poisson *)

let test_poisson_count_and_order () =
  let rng = Sim.Rng.create 8 in
  let events =
    Workload.Poisson.membership rng ~n:20 ~mc:mc_sym ~events:30 ~mean_gap:5.0
      ~initial:[] ~start:0.0 ()
  in
  check Alcotest.int "requested count" 30 (List.length events);
  let times = List.map (fun (e : Workload.Events.t) -> e.time) events in
  check Alcotest.bool "monotone times" true (List.equal Float.equal (List.sort Float.compare times) times)

let test_poisson_membership_never_dies () =
  let rng = Sim.Rng.create 9 in
  let events =
    Workload.Poisson.membership rng ~n:10 ~mc:mc_sym ~events:200 ~mean_gap:1.0
      ~initial:[] ~start:0.0 ()
  in
  (* Replay: the member set must never become empty after the first join. *)
  let members = ref [] in
  let died = ref false in
  List.iter
    (fun (e : Workload.Events.t) ->
      (match e.action with
      | Workload.Events.Join { switch; _ } ->
        members := List.sort_uniq Int.compare (switch :: !members)
      | Workload.Events.Leave { switch; _ } ->
        members := List.filter (fun x -> x <> switch) !members
      | _ -> ());
      if !members = [] then died := true)
    events;
  check Alcotest.bool "never empty" false !died

let test_poisson_leaves_only_members () =
  let rng = Sim.Rng.create 10 in
  let events =
    Workload.Poisson.membership rng ~n:8 ~mc:mc_sym ~events:100 ~mean_gap:1.0
      ~initial:[] ~start:0.0 ()
  in
  let members = ref [] in
  List.iter
    (fun (e : Workload.Events.t) ->
      match e.action with
      | Workload.Events.Join { switch; _ } ->
        if List.mem switch !members then Alcotest.fail "double join";
        members := switch :: !members
      | Workload.Events.Leave { switch; _ } ->
        if not (List.mem switch !members) then Alcotest.fail "phantom leave";
        members := List.filter (fun x -> x <> switch) !members
      | _ -> ())
    events

let test_poisson_initial_seeds () =
  let rng = Sim.Rng.create 11 in
  let events =
    Workload.Poisson.membership rng ~n:10 ~mc:mc_sym ~events:5 ~mean_gap:1.0
      ~initial:[ 2; 5 ] ~start:7.0 ()
  in
  (* Two seed joins at exactly t = 7. *)
  let seeds = List.filter (fun (e : Workload.Events.t) -> e.time = 7.0) events in
  check Alcotest.int "seed events" 2 (List.length seeds);
  check Alcotest.int "total" 7 (List.length events)

let test_poisson_gap_scale () =
  let rng = Sim.Rng.create 12 in
  let events =
    Workload.Poisson.membership rng ~n:20 ~mc:mc_sym ~events:300 ~mean_gap:10.0
      ~initial:[] ~start:0.0 ()
  in
  let times = List.map (fun (e : Workload.Events.t) -> e.time) events in
  let span =
    List.fold_left Float.max neg_infinity times
    -. List.fold_left Float.min infinity times
  in
  let mean_gap = span /. 299.0 in
  if mean_gap < 7.0 || mean_gap > 13.0 then
    Alcotest.failf "mean gap off: %.17g" mean_gap

(* ------------------------------------------------------------------ *)
(* Scenario scripts *)

let sample_script = {|
# demo
graph ring 6
config wan
mc 1 symmetric
mc 2 receiver-only

at 0    join 0 mc=1
at 0.5r join 3 mc=1
at 1r   join 2 mc=2
at 2r   linkdown 0 1
at 3r   leave 0 mc=1
|}

let test_script_parses () =
  match Oracle.Script.parse sample_script with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
    check Alcotest.int "graph size" 6 (Net.Graph.n_nodes s.graph);
    check Alcotest.bool "wan config" true
      (s.config.Dgmc.Config.t_hop = Dgmc.Config.wan.Dgmc.Config.t_hop);
    check Alcotest.int "two mcs" 2 (List.length s.mcs);
    check Alcotest.int "five events" 5 (List.length s.events);
    (* Round-suffixed times scale with the round length. *)
    let round = Dgmc.Config.round_length s.config ~graph:s.graph in
    let times = List.map (fun (e : Workload.Events.t) -> e.time) s.events in
    check Alcotest.bool "round times resolved" true
      (List.mem (0.5 *. round) times && List.mem (3.0 *. round) times)

let test_script_runs_to_convergence () =
  match Oracle.Script.parse sample_script with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
    let net = Workload.Script.build s in
    Dgmc.Protocol.run net;
    List.iter
      (fun mc ->
        if Dgmc.Protocol.divergence net mc <> [] then
          Alcotest.failf "script scenario diverged for %s"
            (Format.asprintf "%a" Dgmc.Mc_id.pp mc))
      s.mcs

let test_script_roles () =
  let text = {|
graph line 4
mc 1 asymmetric
at 0 join 0 mc=1 role=sender
at 0 join 3 mc=1
|} in
  match Oracle.Script.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
    let roles =
      List.filter_map
        (fun (e : Workload.Events.t) ->
          match e.action with
          | Workload.Events.Join { role; _ } -> Some role
          | _ -> None)
        s.events
    in
    check Alcotest.bool "explicit sender honoured" true
      (List.mem Dgmc.Member.Sender roles);
    check Alcotest.bool "asymmetric default is receiver" true
      (List.mem Dgmc.Member.Receiver roles)

let test_script_errors () =
  let expect_error text fragment =
    match Oracle.Script.parse text with
    | Ok _ -> Alcotest.failf "expected a parse error mentioning %S" fragment
    | Error msg ->
      let contains =
        let nh = String.length msg and nn = String.length fragment in
        let rec go i = i + nn <= nh && (String.sub msg i nn = fragment || go (i + 1)) in
        nn = 0 || go 0
      in
      if not contains then Alcotest.failf "error %S does not mention %S" msg fragment
  in
  expect_error "mc 1 symmetric\nat 0 join 1 mc=1" "missing 'graph'";
  expect_error "graph ring 6\nat 0 join 1 mc=9" "not declared";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 99 mc=1" "out of range";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 linkdown 0 3" "no link";
  expect_error "graph ring 6\nmc 1 symmetric\nat -1 join 0 mc=1" "non-negative";
  expect_error "graph ring 6\nfrobnicate" "unknown directive";
  expect_error "graph ring 6\nmc 1 teapot" "unknown MC type";
  (* Malformed key=value payloads and stray tokens. *)
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 0 mc=banana"
    "expected an integer";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 0" "mc=";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 0 role=captain mc=1"
    "unknown role";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 0 mc=1 banana"
    "unexpected";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 linkdown 0" "linkdown";
  expect_error "graph ring 6\nmc 1 symmetric\nat zero join 0 mc=1" "time";
  (* Every diagnostic carries the offending line number. *)
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 99 mc=1" "line 3:";
  expect_error "graph ring 6\nfrobnicate" "line 2:";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 0 mc=1\nat 1 linkdown 0 3"
    "line 4:"

(* The event reader that [at] lines use, exported for --race/--setup,
   and the writer repro lines compose with. *)
let script_mcs = [ mc_sym; mc_recv; mc_asym ]

let action_gen =
  QCheck2.Gen.(
    let switch = int_range 0 20 in
    let mc = oneofl script_mcs in
    oneof
      [
        map3
          (fun switch mc role -> Workload.Events.Join { switch; mc; role })
          switch mc
          (oneofl Dgmc.Member.[ Sender; Receiver; Both ]);
        map2 (fun switch mc -> Workload.Events.Leave { switch; mc }) switch mc;
        map2 (fun u v -> Workload.Events.Link_down (u, v)) switch switch;
        map2 (fun u v -> Workload.Events.Link_up (u, v)) switch switch;
      ])

let action_equal (a : Workload.Events.action) (b : Workload.Events.action) =
  let role = Dgmc.Member.role_to_string in
  match (a, b) with
  | Join a, Join b ->
    a.switch = b.switch && Dgmc.Mc_id.equal a.mc b.mc
    && String.equal (role a.role) (role b.role)
  | Leave a, Leave b -> a.switch = b.switch && Dgmc.Mc_id.equal a.mc b.mc
  | Link_down (u, v), Link_down (u', v') | Link_up (u, v), Link_up (u', v') ->
    u = u' && v = v'
  | (Join _ | Leave _ | Link_down _ | Link_up _), _ -> false

let prop_action_round_trip =
  QCheck2.Test.make ~name:"reading the writer's event returns it" ~count:500
    ~print:Workload.Script.action_to_string action_gen (fun a ->
      match
        Workload.Script.action_of_string ~mcs:script_mcs
          (Workload.Script.action_to_string a)
      with
      | Ok b -> action_equal a b
      | Error _ -> false)

let test_action_reader () =
  let read = Workload.Script.action_of_string ~mcs:script_mcs in
  let role_of s =
    match read s with
    | Ok (Workload.Events.Join { role; _ }) ->
      Some (Dgmc.Member.role_to_string role)
    | Ok _ | Error _ -> None
  in
  let role = Alcotest.(option string) in
  check role "symmetric default is both" (Some "both") (role_of "join 0 mc=1");
  check role "receiver-only default is receiver" (Some "receiver")
    (role_of "join 0 mc=2");
  check role "asymmetric default is receiver" (Some "receiver")
    (role_of "join 0 mc=3");
  check role "explicit role" (Some "sender") (role_of "join 0 mc=3 role=sender");
  check
    Alcotest.(result reject string)
    "misspelt option"
    (Error {|unknown option "rol" (allowed: mc, role)|})
    (Result.map ignore (read "join 0 mc=3 rol=sender"));
  check
    Alcotest.(result reject string)
    "link verbs are linkdown/linkup"
    (Error {|unknown event "down"|})
    (Result.map ignore (read "down 0 1"))

let test_script_health_directive () =
  let text =
    {|
graph grid 3 3
mc 1 symmetric
health period=0.5r detector=k:4 damp-suppress=2
at 0 join 0 mc=1
at 0 join 8 mc=1
at 2r linkdown 4 5
at 5r linkup 4 5
|}
  in
  match Oracle.Script.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s -> (
    match s.health with
    | None -> Alcotest.fail "health directive not picked up"
    | Some hc ->
      let round = Dgmc.Config.round_length s.config ~graph:s.graph in
      check (Alcotest.float 1e-9) "period resolved in rounds" (0.5 *. round)
        hc.Health.Config.period;
      check Alcotest.int "detector k" 4 hc.Health.Config.detector;
      (match hc.Health.Config.damping with
      | Some d ->
        check (Alcotest.float 1e-9) "suppress" 2.0 d.Health.Damping.suppress
      | None -> Alcotest.fail "damp-suppress must enable damping");
      check Alcotest.bool "derived horizon past the last event" true
        (hc.Health.Config.horizon > 5.0 *. round);
      (* The layer is actually engaged and the run converges. *)
      let net = Workload.Script.build s in
      Dgmc.Protocol.run net;
      (match Dgmc.Protocol.health_summary net with
      | None -> Alcotest.fail "built protocol has no health layer"
      | Some h ->
        check Alcotest.int "no false positive" 0
          h.Dgmc.Link_health.h_false_positives;
        check Alcotest.bool "failure detected" true
          (h.Dgmc.Link_health.h_detections > 0));
      List.iter
        (fun mc ->
          if Dgmc.Protocol.divergence net mc <> [] then
            Alcotest.failf "health scenario diverged for %s"
              (Format.asprintf "%a" Dgmc.Mc_id.pp mc))
        s.mcs)

(* The acceptance gate the CI health job scripts: the two churny shipped
   scenarios still converge when the harness withholds scripted link
   notifications and the detectors must discover everything — under the
   runtime invariant monitor, with zero false positives and every
   detection inside the configured bound. *)
let test_shipped_scenarios_with_detectors () =
  let scenario_dir =
    List.find Sys.file_exists [ "../scenarios"; "scenarios" ]
  in
  List.iter
    (fun file ->
      let path = Filename.concat scenario_dir file in
      match Workload.Script.load path with
      | Error e -> Alcotest.failf "%s: %s" file e
      | Ok s ->
        let hc =
          match
            Workload.Script.health_of_spec ~graph:s.graph ~config:s.config
              ~events:s.events "period=0.5r detector=k:3"
          with
          | Ok hc -> hc
          | Error e -> Alcotest.failf "health args: %s" e
        in
        let s = { s with Workload.Script.health = Some hc } in
        let net = Workload.Script.build s in
        let monitor = Check.Monitor.attach net in
        Dgmc.Protocol.run net;
        Check.Monitor.check_terminal monitor;
        (match Check.Monitor.violations monitor with
        | [] -> ()
        | vs ->
          Alcotest.failf "%s: monitor violations under detectors:\n%s" file
            (String.concat "\n" vs));
        (match Dgmc.Protocol.health_summary net with
        | None -> Alcotest.failf "%s: health layer not engaged" file
        | Some h ->
          check Alcotest.int
            (file ^ ": zero false positives")
            0 h.Dgmc.Link_health.h_false_positives;
          List.iter
            (fun l ->
              check Alcotest.bool
                (file ^ ": detection within bound")
                true
                (l <= h.Dgmc.Link_health.h_bound))
            h.Dgmc.Link_health.h_latencies);
        List.iter
          (fun mc ->
            if Dgmc.Protocol.divergence net mc <> [] then
              Alcotest.failf "%s: diverged for %s under detectors" file
                (Format.asprintf "%a" Dgmc.Mc_id.pp mc))
          s.mcs)
    [ "failure_recovery.dgmc"; "churn_storm.dgmc" ]

let () =
  Alcotest.run "workload"
    [
      ( "events",
        [
          Alcotest.test_case "stable sort" `Quick test_events_sort_stable;
          Alcotest.test_case "counts and span" `Quick test_events_counts_and_span;
          Alcotest.test_case "apply to dgmc" `Quick test_events_apply_dgmc;
        ] );
      ( "bursty",
        [
          Alcotest.test_case "join burst shape" `Quick test_bursty_joins_shape;
          Alcotest.test_case "roles by MC kind" `Quick test_bursty_roles_by_kind;
          Alcotest.test_case "validation" `Quick test_bursty_validation;
          Alcotest.test_case "churn" `Quick test_bursty_churn;
          Alcotest.test_case "churn validation" `Quick test_bursty_churn_validation;
        ] );
      ( "poisson",
        [
          Alcotest.test_case "count and order" `Quick test_poisson_count_and_order;
          Alcotest.test_case "membership never dies" `Quick
            test_poisson_membership_never_dies;
          Alcotest.test_case "leaves only members" `Quick
            test_poisson_leaves_only_members;
          Alcotest.test_case "initial seeds" `Quick test_poisson_initial_seeds;
          Alcotest.test_case "gap scale" `Quick test_poisson_gap_scale;
        ] );
      ( "script",
        [
          Alcotest.test_case "parses" `Quick test_script_parses;
          Alcotest.test_case "runs to convergence" `Quick
            test_script_runs_to_convergence;
          Alcotest.test_case "roles" `Quick test_script_roles;
          Alcotest.test_case "errors" `Quick test_script_errors;
          Alcotest.test_case "event reader" `Quick test_action_reader;
          QCheck_alcotest.to_alcotest prop_action_round_trip;
          Alcotest.test_case "health directive" `Quick
            test_script_health_directive;
          Alcotest.test_case "shipped scenarios under detectors" `Quick
            test_shipped_scenarios_with_detectors;
        ] );
    ]
