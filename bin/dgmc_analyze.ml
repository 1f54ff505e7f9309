(* dgmc_analyze — source-level determinism and domain-safety analyzer.

   Walks the repo's own OCaml sources (AST-level, compiler-libs) for
   the rule catalogue in DESIGN.md §5: nondet-source, iteration-order,
   poly-compare, float-format, domain-unsafe-capture, and
   unused-export (an .mli val no other scanned file names).  Every
   finding fails the run unless a per-site suppression comment, which
   states its reason, covers it.

   Exit status: 0 no finding, 1 findings, 2 usage/IO error. *)

open Cmdliner

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

let rules_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"R1,R2"
        ~doc:"Run only these rules (comma-separated).")

let list_rules_arg =
  Arg.(
    value & flag
    & info [ "list-rules" ] ~doc:"List the rule catalogue and exit.")

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

let run paths json rules list_rules unused =
  if list_rules then begin
    List.iter
      (fun r ->
        Printf.printf "%-24s %s\n" (Analysis.Rules.name r)
          (Analysis.Rules.describe r))
      Analysis.Rules.all;
    exit 0
  end;
  let enabled =
    match parse_rule_set rules with
    | Error e ->
      prerr_endline ("dgmc_analyze: " ^ e);
      exit 2
    | Ok None -> fun _ -> true
    | Ok (Some l) -> fun r -> List.mem r l
  in
  let json_oc =
    match json with
    | Some "-" -> Some stdout
    | Some file -> Some (Cli.open_out ~prog:"dgmc_analyze" file)
    | None -> None
  in
  let result =
    match Analysis.Driver.run ~enabled paths with
    | r -> r
    | exception Sys_error e ->
      prerr_endline ("dgmc_analyze: " ^ e);
      exit 2
  in
  Option.iter
    (fun oc ->
      output_string oc (Analysis.Driver.render_json result);
      flush oc)
    json_oc;
  (match json with
  | Some "-" -> ()
  | _ -> print_string (Analysis.Driver.render_human result));
  if unused then
    List.iter
      (fun (file, (s : Analysis.Suppress.t)) ->
        Printf.printf "%s:%d: unused suppression for %s\n" file
          s.Analysis.Suppress.s_line_start
          (String.concat ", " s.Analysis.Suppress.rules))
      result.Analysis.Driver.unused_suppressions;
  match result.Analysis.Driver.diags with [] -> () | _ :: _ -> exit 1

let () =
  let doc = "Determinism and domain-safety analysis of dgmc's own sources" in
  let info = Cmd.info "dgmc_analyze" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ paths_arg $ json_arg $ rules_arg $ list_rules_arg
            $ unused_arg)))
