(* dgmc_report — the reader of dgmc-trace/1 captures.

   By default renders a capture into one run report: the
   reconfiguration episodes (convergence latency and control cost, read
   from the installed C stamps), fault and detection tables, as markdown
   or dgmc-report/2 JSON.  The analyzer modes answer the questions a
   diverged or slow run raises:
   what happened overall (--summary), how each MC's installed topology
   evolved (--convergence), where a switch's view departed from the
   network's (--divergence), and what caused an event (--chain).  Where
   the host time went is the bench ledger's traced per-layer table
   (bench/ledger). *)

open Cmdliner

let trace_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE"
        ~doc:"JSONL trace (schema dgmc-trace/1) from dgmc_sim --trace.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the dgmc-report/2 JSON document instead of markdown.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the report to $(docv) instead of standard output.")

let chain_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chain" ] ~docv:"ID"
        ~doc:
          "Print the causal ancestry of event $(docv), root first: the \
           chain of originations, forwards and deliveries that led to it \
           (exit 1 when the trace does not hold it).")

let convergence_arg =
  Arg.(
    value & flag
    & info [ "convergence" ]
        ~doc:
          "Per-MC install timeline: every Topology_installed event, then \
           whether the final views agree.")

let divergence_arg =
  Arg.(
    value & flag
    & info [ "divergence" ]
        ~doc:
          "Per-MC divergence report: the majority final view, each switch \
           that ends elsewhere, and the first install event it missed \
           (exit 1 when any MC diverged).")

let summary_arg =
  Arg.(
    value & flag
    & info [ "summary" ]
        ~doc:
          "Event counts by category and switch, per-MC install totals.")

let fail code msg =
  prerr_endline msg;
  code

let () =
  let doc = "Report on and analyze dgmc-trace/1 causal traces" in
  let run trace_file json output chain_id conv div summ =
    let analyzer = Option.is_some chain_id || conv || div || summ in
    let modes = [ Option.is_some chain_id; conv; div; summ; json ] in
    if List.length (List.filter Fun.id modes) > 1 then
      fail 2
        "dgmc_report: --chain, --convergence, --divergence, --summary and \
         --json are mutually exclusive"
    else
      let oc =
        match output with
        | None -> stdout
        | Some path -> Cli.open_out ~prog:"dgmc_report" path
      in
      match Report.Run_report.load trace_file with
      | Error msg -> fail 2 msg
      | Ok a -> (
        if analyzer && a.a_dropped > 0 then
          prerr_endline ("warning: " ^ Report.Run_report.dropped_note a);
        let emit code body =
          output_string oc body;
          flush oc;
          code
        in
        match chain_id with
        | Some id -> (
          match Report.Run_report.chain a id with
          | Ok body -> emit 0 body
          | Error msg -> fail 1 msg)
        | None when conv -> emit 0 (Report.Run_report.convergence a)
        | None when div ->
          let body, diverged = Report.Run_report.divergence a in
          emit (if diverged then 1 else 0) body
        | None when summ -> emit 0 (Report.Run_report.trace_summary a)
        | None ->
          emit 0
            (if json then Report.Run_report.json a
             else Report.Run_report.markdown a))
  in
  let term =
    Term.(
      const run $ trace_arg $ json_arg $ output_arg $ chain_arg
      $ convergence_arg $ divergence_arg $ summary_arg)
  in
  exit (Cmd.eval' (Cmd.v (Cmd.info "dgmc_report" ~version:"1.0.0" ~doc) term))
