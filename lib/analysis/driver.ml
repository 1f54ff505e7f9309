type result = {
  diags : Diag.t list;  (* sorted by Diag.compare *)
  suppressed : int;
  files_scanned : int;
  unused_suppressions : (string * Suppress.t) list;
}

(* ------------------------------------------------------------------ *)
(* File discovery *)

let skip_dir name =
  name = "_build" || name = "analysis_fixtures"
  || (String.length name > 0 && name.[0] = '.')

let gather suffix paths =
  let out = ref [] in
  let rec walk p =
    if Sys.is_directory p then
      Array.iter
        (fun entry ->
          let child = Filename.concat p entry in
          if Sys.is_directory child then begin
            if not (skip_dir entry) then walk child
          end
          else if Filename.check_suffix entry suffix then out := child :: !out)
        (Sys.readdir p)
    else if Filename.check_suffix p suffix then out := p :: !out
    else ()
  in
  List.iter walk paths;
  List.sort_uniq String.compare !out

(* ------------------------------------------------------------------ *)

let run ~enabled paths =
  let files = List.map Scan.load (gather ".ml" paths) in
  let env = Scan.env_of files in
  (* The unused-export rule is the one cross-file pass: interfaces
     against every implementation's references. *)
  let interfaces, callers =
    if enabled Rules.Unused_export then
      (List.map Exports.load_interface (gather ".mli" paths), Exports.callers files)
    else ([], Exports.callers [])
  in
  let suppressed = ref 0 in
  let unused = ref [] in
  let keep path sup diags =
    let kept =
      List.filter
        (fun (d : Diag.t) ->
          if
            d.rule = Rules.name Rules.Parse_error
            || d.rule = "suppression-syntax"
          then true (* not suppressible *)
          else if Suppress.covers sup ~rule:d.rule ~line:d.line then begin
            incr suppressed;
            false
          end
          else true)
        diags
    in
    (* A suppression can match only a rule that ran. *)
    let ran (s : Suppress.t) =
      List.exists
        (fun r -> Option.fold ~none:true ~some:enabled (Rules.of_name r))
        s.rules
    in
    List.iter
      (fun s -> if ran s then unused := (path, s) :: !unused)
      (Suppress.unused sup);
    kept
  in
  let raw =
    List.concat_map
      (fun (f : Scan.file) -> keep f.path f.sup (Scan.check env ~enabled f))
      files
    @ List.concat_map
        (fun (i : Exports.interface) ->
          keep i.path i.sup (Exports.check callers i))
        interfaces
  in
  {
    diags = List.sort Diag.compare raw;
    suppressed = !suppressed;
    files_scanned = List.length files + List.length interfaces;
    unused_suppressions = List.rev !unused;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render_human r =
  let b = Buffer.create 1024 in
  List.iter (fun d -> Buffer.add_string b (Diag.render d ^ "\n")) r.diags;
  let n = List.length r.diags in
  Buffer.add_string b
    (Printf.sprintf "%d finding%s (%d suppressed) in %d files\n" n
       (if n = 1 then "" else "s")
       r.suppressed r.files_scanned);
  Buffer.contents b

let render_json r =
  Printf.sprintf
    {|{
  "schema": "dgmc-analyze/1",
  "kind": "report",
  "files_scanned": %d,
  "suppressed": %d,
  "findings": [
%s
  ]
}
|}
    r.files_scanned r.suppressed
    (String.concat ",\n" (List.map (fun d -> "    " ^ Diag.json d) r.diags))
