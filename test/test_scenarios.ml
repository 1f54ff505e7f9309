(* Corpus test: every scenario script shipped in scenarios/ must parse,
   lint clean, run to quiescence under the runtime invariant monitor,
   leave every declared MC in network-wide agreement, and read as
   converged episodes in its run report; the never-healed partition of
   fixtures/unhealed.dgmc must read as unconverged.  (The dune rule
   passes the directory as a dependency.) *)

(* dune runtest executes in _build/default/test; `dune exec` from the
   project root.  Accept both. *)
let scenario_dir =
  List.find Sys.file_exists [ "../scenarios"; "scenarios" ]

let scenario_files () =
  Sys.readdir scenario_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dgmc")
  |> List.sort String.compare

(* The unconverged episodes of the run report over [trace]. *)
let unconverged trace =
  let archive =
    {
      Sim.Trace.a_emitted = 0;
      a_dropped = 0;
      a_entries = Sim.Trace.entries trace;
    }
  in
  match Sim.Json.parse (Report.Run_report.json archive) with
  | Error e -> Alcotest.failf "report does not parse: %s" e
  | Ok j -> (
    match
      Option.bind
        (Option.bind (Sim.Json.member "sli" j) (Sim.Json.member "unconverged"))
        Sim.Json.to_int
    with
    | Some n -> n
    | None -> Alcotest.fail "report has no sli.unconverged")

let traced_run path =
  match Workload.Script.load path with
  | Error msg -> Alcotest.failf "%s: parse error: %s" path msg
  | Ok script ->
    let trace = Sim.Trace.create () in
    let net = Workload.Script.build ~trace script in
    (script, net, trace)

let run_scenario file () =
  let path = Filename.concat scenario_dir file in
  (match Workload.Script.read_file path with
  | Error msg -> Alcotest.failf "%s: %s" file msg
  | Ok text ->
    let diags = Workload.Script.lint text in
    if Workload.Script.errors diags > 0 then
      Alcotest.failf "%s: lint errors:\n%s" file
        (String.concat "\n"
           (List.map (Workload.Script.render ~file) diags)));
  let script, net, trace = traced_run path in
  let monitor = Check.Monitor.attach net in
  Dgmc.Protocol.run net;
  Check.Monitor.check_terminal monitor;
  Oracle.Monitor.assert_ok monitor;
  List.iter
    (fun mc ->
      match Dgmc.Protocol.divergence net mc with
      | [] -> ()
      | reasons ->
        Alcotest.failf "%s: %s diverged: %s" file
          (Format.asprintf "%a" Dgmc.Mc_id.pp mc)
          (String.concat "; " reasons))
    script.mcs;
  (* Every scenario must actually exercise something. *)
  let totals = Dgmc.Protocol.totals net in
  if totals.events = 0 then Alcotest.failf "%s: no events" file;
  Alcotest.(check int) (file ^ ": unconverged episodes") 0 (unconverged trace)

let unhealed_unconverged () =
  let _, net, trace =
    traced_run
      (List.find Sys.file_exists
         [ "fixtures/unhealed.dgmc"; "test/fixtures/unhealed.dgmc" ])
  in
  Dgmc.Protocol.run net;
  if unconverged trace < 1 then
    Alcotest.fail "unhealed.dgmc: no unconverged episode"

let () =
  let files = scenario_files () in
  if files = [] then failwith "no scenario files found";
  Alcotest.run "scenarios"
    [
      ( "corpus",
        List.map (fun f -> Alcotest.test_case f `Quick (run_scenario f)) files );
      ( "report",
        [
          Alcotest.test_case "unhealed.dgmc reads unconverged" `Quick
            unhealed_unconverged;
        ] );
    ]
