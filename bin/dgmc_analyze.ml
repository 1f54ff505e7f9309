(* dgmc_analyze — source-level determinism and domain-safety analyzer.

   Walks the repo's own OCaml sources (AST-level, compiler-libs) for
   the rule catalogue in DESIGN.md §5: nondet-source, iteration-order,
   poly-compare, float-format, domain-unsafe-capture, and
   unused-export (an .mli val no other scanned file names).  Findings not
   covered by a per-site suppression comment or the committed baseline
   fail the run.

   Exit status: 0 clean vs baseline, 1 new findings, 2 usage/IO
   error. *)

open Cmdliner

let default_baseline = "dgmc-analyze-baseline.json"

let paths_arg =
  Arg.(
    value
    & pos_all string [ "lib"; "bin"; "bench"; "test" ]
    & info [] ~docv:"PATH" ~doc:"Files or directories to analyze.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the dgmc-analyze/1 JSON report to $(docv) (- = stdout).")

let baseline_arg =
  Arg.(
    value
    & opt string default_baseline
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Baseline of accepted pre-existing findings (missing file = \
           empty baseline).")

let no_baseline_arg =
  Arg.(
    value & flag
    & info [ "no-baseline" ]
        ~doc:"Ignore the baseline file; every finding is new.")

let update_arg =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:
          "Rewrite the baseline from the current findings and exit 0. \
           Use after fixing findings (to ratchet down) or to accept \
           documented leftovers.")

let rules_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"R1,R2"
        ~doc:"Run only these rules (comma-separated).")

let disable_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "disable" ] ~docv:"R1,R2" ~doc:"Skip these rules.")

let list_rules_arg =
  Arg.(
    value & flag
    & info [ "list-rules" ] ~doc:"List the rule catalogue and exit.")

let show_baselined_arg =
  Arg.(
    value & flag
    & info [ "show-baselined" ]
        ~doc:"Also print findings covered by the baseline.")

let unused_arg =
  Arg.(
    value & flag
    & info [ "unused-suppressions" ]
        ~doc:
          "Report suppression comments that matched no finding of a rule \
           that ran.")

let parse_rule_set = function
  | None -> Ok None
  | Some csv ->
    let names = String.split_on_char ',' csv in
    List.fold_left
      (fun acc n ->
        match (acc, Analysis.Rules.of_name n) with
        | Ok l, Some r -> Ok (r :: l)
        | Ok _, None -> Error (Printf.sprintf "unknown rule %S" (String.trim n))
        | (Error _ as e), _ -> e)
      (Ok []) names
    |> Result.map Option.some

let run paths json baseline_path no_baseline update rules disable list_rules
    show_baselined unused =
  if list_rules then begin
    List.iter
      (fun r ->
        Printf.printf "%-24s %s\n" (Analysis.Rules.name r)
          (Analysis.Rules.describe r))
      Analysis.Rules.all;
    exit 0
  end;
  let enabled =
    match (parse_rule_set rules, parse_rule_set disable) with
    | Error e, _ | _, Error e ->
      prerr_endline ("dgmc_analyze: " ^ e);
      exit 2
    | Ok only, Ok off ->
      fun r ->
        (match only with None -> true | Some l -> List.mem r l)
        && (match off with None -> true | Some l -> not (List.mem r l))
  in
  let baseline =
    if no_baseline || update then Analysis.Baseline.empty
    else
      match Analysis.Baseline.load baseline_path with
      | Ok b -> b
      | Error e ->
        prerr_endline ("dgmc_analyze: " ^ e);
        exit 2
  in
  let result =
    match Analysis.Driver.run ~enabled ~baseline paths with
    | r -> r
    | exception Sys_error e ->
      prerr_endline ("dgmc_analyze: " ^ e);
      exit 2
  in
  if update then begin
    let diags = List.map fst result.Analysis.Driver.diags in
    Analysis.Baseline.save baseline_path (Analysis.Baseline.of_diags diags);
    Printf.printf "wrote %s (%d findings across %d files)\n" baseline_path
      (List.length diags) result.Analysis.Driver.files_scanned;
    exit 0
  end;
  (match json with
  | Some "-" -> print_string (Analysis.Driver.render_json result)
  | Some file ->
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Analysis.Driver.render_json result));
    print_string (Analysis.Driver.render_human ~show_baselined result)
  | None -> print_string (Analysis.Driver.render_human ~show_baselined result));
  if unused then
    List.iter
      (fun (file, (s : Analysis.Suppress.t)) ->
        Printf.printf "%s:%d: unused suppression for %s\n" file
          s.Analysis.Suppress.s_line_start
          (String.concat ", " s.Analysis.Suppress.rules))
      result.Analysis.Driver.unused_suppressions;
  if Analysis.Driver.new_count result > 0 then exit 1

let () =
  let doc = "Determinism and domain-safety analysis of dgmc's own sources" in
  let info = Cmd.info "dgmc_analyze" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ paths_arg $ json_arg $ baseline_arg $ no_baseline_arg
            $ update_arg $ rules_arg $ disable_arg $ list_rules_arg
            $ show_baselined_arg $ unused_arg)))
