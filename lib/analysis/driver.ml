type status = New | Baselined

type result = {
  diags : (Diag.t * status) list;  (* sorted by Diag.compare *)
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

let gather_files = gather ".ml"

(* ------------------------------------------------------------------ *)

let analyze ?(enabled = fun _ -> true) paths =
  let files = List.map Scan.load (gather_files paths) in
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
    List.iter (fun s -> unused := (path, s) :: !unused) (Suppress.unused sup);
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
  let sorted = List.sort Diag.compare raw in
  (sorted, !suppressed, List.length files + List.length interfaces, List.rev !unused)

let against_baseline baseline (sorted, suppressed, files_scanned, unused) =
  (* Findings are sorted, so same (file, rule) groups are contiguous in
     line order; the first [baseline count] of each group are treated as
     pre-existing, anything beyond is new. *)
  let seen = Hashtbl.create 64 in
  let diags =
    List.map
      (fun (d : Diag.t) ->
        let key = (d.file, d.rule) in
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen key) in
        Hashtbl.replace seen key n;
        let status =
          if n <= Baseline.count baseline ~file:d.file ~rule:d.rule then
            Baselined
          else New
        in
        (d, status))
      sorted
  in
  { diags; suppressed; files_scanned; unused_suppressions = unused }

let run ?enabled ~baseline paths =
  against_baseline baseline (analyze ?enabled paths)

let new_count r =
  List.length (List.filter (fun (_, s) -> s = New) r.diags)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render_human ?(show_baselined = false) r =
  let b = Buffer.create 1024 in
  List.iter
    (fun ((d : Diag.t), status) ->
      match status with
      | New -> Buffer.add_string b (Diag.render d ^ "\n")
      | Baselined ->
        if show_baselined then
          Buffer.add_string b (Diag.render d ^ " [baseline]\n"))
    r.diags;
  let news = new_count r in
  Buffer.add_string b
    (Printf.sprintf
       "%d finding%s (%d new, %d baselined, %d suppressed) in %d files\n"
       (List.length r.diags)
       (if List.length r.diags = 1 then "" else "s")
       news
       (List.length r.diags - news)
       r.suppressed r.files_scanned);
  Buffer.contents b

let render_json r =
  let finding ((d : Diag.t), status) =
    let record = Diag.json d in
    (* Splice the status into the shared diagnostic record. *)
    String.sub record 0 (String.length record - 1)
    ^ Printf.sprintf {|, "status": "%s"}|}
        (match status with New -> "new" | Baselined -> "baseline")
  in
  Printf.sprintf
    {|{
  "schema": "dgmc-analyze/1",
  "kind": "report",
  "files_scanned": %d,
  "suppressed": %d,
  "new": %d,
  "findings": [
%s
  ]
}
|}
    r.files_scanned r.suppressed (new_count r)
    (String.concat ",\n" (List.map (fun f -> "    " ^ finding f) r.diags))
