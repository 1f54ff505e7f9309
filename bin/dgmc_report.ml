(* dgmc_report — render a run's trace into one report.

   Reads a dgmc-trace/1 JSONL capture, reduces it to the reconfiguration
   SLIs (convergence-latency and control-cost windows), and renders a
   markdown (default) or dgmc-report/1 JSON document: what the protocol
   did.  Where the host time went is the bench ledger's traced per-layer
   table (bench/ledger). *)

open Cmdliner

let load_trace path =
  match Sim.Trace.read_jsonl ~path with
  | Ok a -> a
  | Error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 2

let trace_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE"
        ~doc:"JSONL trace (schema dgmc-trace/1) from dgmc_sim --trace.")

let gap_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "gap" ] ~docv:"SECONDS"
        ~doc:
          "Sessionization gap for SLI windows, in simulated seconds: \
           observations on one MC further apart start a new window.  \
           Defaults to 1/20 of the trace's simulated span.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the dgmc-report/1 JSON document instead of markdown.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the report to $(docv) instead of standard output.")

let () =
  let doc = "Render a trace into a run report" in
  let run trace_file gap json output =
    let a = load_trace trace_file in
    let gap =
      match gap with
      | Some g ->
        if not (Float.is_finite g && g > 0.0) then begin
          prerr_endline "dgmc_report: --gap must be positive";
          exit 2
        end;
        g
      | None -> Report.Run_report.default_gap a.Sim.Trace.a_entries
    in
    let body =
      if json then Report.Run_report.json ~gap a
      else Report.Run_report.markdown ~gap a
    in
    match output with
    | None -> print_string body
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc body)
  in
  let term =
    Term.(const run $ trace_arg $ gap_arg $ json_arg $ output_arg)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "dgmc_report" ~version:"1.0.0" ~doc) term))
