(* dgmc_bench_diff — the regression gate over two BENCH_dgmc.json files.

   Compares a committed baseline against a freshly produced candidate:
   deterministic figures (cell identity sets, metric counters, histogram
   sample counts) must match exactly, and per-figure + total
   seq_estimate_s — the domain-count-independent wall measure — must stay
   within --wall-tol unless the rise is 0.05 s or less.  Exit 0 on pass,
   1 on regression, 2 on usage/parse errors, so CI can gate on it
   directly. *)

open Cmdliner

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let baseline_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BASELINE" ~doc:"Committed dgmc-bench/1 document.")

let candidate_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"CANDIDATE" ~doc:"Freshly produced dgmc-bench/1 document.")

let wall_tol_arg =
  Arg.(
    value & opt float 0.10
    & info [ "wall-tol" ] ~docv:"FRACTION"
        ~doc:
          "Relative tolerance on per-figure and total seq_estimate_s \
           (default 0.10 = ±10%).  A rise of 0.05 s or less never fails.  \
           Deterministic figure data is always compared exactly, \
           regardless of this setting.")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:"Also write the markdown diff report to $(docv).")

let () =
  let doc = "Diff two dgmc-bench/1 documents and gate on regressions" in
  let run baseline candidate wall_tol report_path =
    if not (Float.is_finite wall_tol && wall_tol >= 0.0) then begin
      prerr_endline "dgmc_bench_diff: --wall-tol must be non-negative";
      exit 2
    end;
    match
      Report.Bench_diff.compare_strings ~wall_tol ~baseline:(read baseline)
        ~candidate:(read candidate)
    with
    | Error msg ->
      Printf.eprintf "dgmc_bench_diff: %s\n" msg;
      exit 2
    | Ok outcome ->
      let body =
        Report.Bench_diff.render ~wall_tol ~baseline_name:baseline
          ~candidate_name:candidate outcome
      in
      print_string body;
      (match report_path with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc body));
      if Report.Bench_diff.failed outcome then exit 1
  in
  let term =
    Term.(const run $ baseline_arg $ candidate_arg $ wall_tol_arg $ report_arg)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "dgmc_bench_diff" ~version:"1.0.0" ~doc) term))
