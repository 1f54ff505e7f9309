(* dgmc_lint — static checks for .dgmc scenario scripts.

   Reports every malformed line and semantic problem in every given
   file in compiler-style file:line: form, or as dgmc-analyze/1
   diagnostic records with [--json] so the same tooling consumes
   analyzer and lint output.
   Exit status: 0 when no file has errors (warnings allowed), 1 when
   any lint error was found, 2 when a file could not be read or the
   --json file could not be opened. *)

open Cmdliner

let files_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"FILE" ~doc:"Scenario script(s) to check.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress warnings.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the findings as dgmc-analyze/1 diagnostic records to \
           $(docv) (- = stdout).")

(* Scenario diagnostics in the record shape every dgmc linter shares
   (Analysis.Diag), so the CI gate and dashboards parse one format. *)
let diag_of ~file (d : Workload.Script.diagnostic) =
  {
    Analysis.Diag.file;
    line = d.line;
    col = 0;
    rule = "scenario-lint";
    severity =
      (match d.severity with
      | Workload.Script.Error -> Analysis.Diag.Error
      | Workload.Script.Warning -> Analysis.Diag.Warning);
    message = d.message;
  }

let render_doc ~files ~errors ~warnings diags =
  Printf.sprintf
    {|{
  "schema": "dgmc-analyze/1",
  "kind": "lint",
  "files": %d,
  "errors": %d,
  "warnings": %d,
  "findings": [
%s
  ]
}
|}
    files errors warnings
    (String.concat ",\n"
       (List.map (fun d -> "    " ^ Analysis.Diag.json d) diags))

let run files quiet json =
  let json_to_stdout = match json with Some "-" -> true | _ -> false in
  let json_oc =
    match json with
    | Some "-" -> Some stdout
    | Some dst -> Some (Cli.open_out ~prog:"dgmc_lint" dst)
    | None -> None
  in
  let n_errors = ref 0 in
  let n_warnings = ref 0 in
  let io_failed = ref false in
  let records = ref [] in
  List.iter
    (fun file ->
      match Workload.Script.read_file file with
      | Error msg ->
        Printf.eprintf "%s: cannot read: %s\n" file msg;
        io_failed := true
      | Ok text ->
        let diags = Workload.Script.lint text in
        n_errors := !n_errors + Workload.Script.errors diags;
        n_warnings := !n_warnings + Workload.Script.warnings diags;
        records := !records @ List.map (diag_of ~file) diags;
        if not json_to_stdout then
          List.iter
            (fun (d : Workload.Script.diagnostic) ->
              if d.severity = Workload.Script.Error || not quiet then
                print_endline (Workload.Script.render ~file d))
            diags)
    files;
  Option.iter
    (fun oc ->
      output_string oc
        (render_doc ~files:(List.length files) ~errors:!n_errors
           ~warnings:!n_warnings !records);
      flush oc)
    json_oc;
  if !io_failed then exit 2 else if !n_errors > 0 then exit 1

let () =
  let doc = "Lint D-GMC scenario scripts without running them" in
  let info = Cmd.info "dgmc_lint" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.v info Term.(const run $ files_arg $ quiet_arg $ json_arg)))
