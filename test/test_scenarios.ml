(* Corpus test: every scenario script shipped in scenarios/ must parse,
   lint clean, run to quiescence under the runtime invariant monitor,
   and leave every declared MC in network-wide agreement.  (The dune
   rule passes the directory as a dependency.) *)

(* dune runtest executes in _build/default/test; `dune exec` from the
   project root.  Accept both. *)
let scenario_dir =
  List.find Sys.file_exists [ "../scenarios"; "scenarios" ]

let scenario_files () =
  Sys.readdir scenario_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dgmc")
  |> List.sort String.compare

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
  match Workload.Script.load path with
  | Error msg -> Alcotest.failf "%s: parse error: %s" file msg
  | Ok script ->
    let net = Workload.Script.build script in
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
    if totals.events = 0 then Alcotest.failf "%s: no events" file

let () =
  let files = scenario_files () in
  if files = [] then failwith "no scenario files found";
  Alcotest.run "scenarios"
    [
      ( "corpus",
        List.map (fun f -> Alcotest.test_case f `Quick (run_scenario f)) files );
    ]
