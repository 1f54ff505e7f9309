(* The exit-code contract of the three input-reading binaries, over
   mutated inputs.

     contract.exe SIM LINT REPORT FILE...

   Each [.dgmc] FILE is run, once per line with that line deleted,
   through [SIM script --check] and [LINT]; each [.jsonl] FILE is cut at
   three byte offsets (a third of the way in, just after the newline
   nearest the middle, and one byte short of the end) and each cut is
   run through every [REPORT] mode.  Every exit code must be one the
   binary documents (0, 1 or 2 for all three; never 125, the uncaught
   exception).  Prints, per binary, how many runs ended with each code;
   a run outside the set is also named on stderr, and the program then
   exits 1. *)

let documented = [ 0; 1; 2 ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_temp ~suffix contents =
  let path = Filename.temp_file "contract" suffix in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

let run prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) null null null
  in
  Unix.close null;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> 1000 + s

(* Exit codes seen per binary label, in first-seen order. *)
let tallies : (string * (int, int) Hashtbl.t) list ref = ref []
let failed = ref false

let check label ~case prog args =
  let code = run prog args in
  let tbl =
    match List.assoc_opt label !tallies with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 4 in
      tallies := !tallies @ [ (label, t) ];
      t
  in
  Hashtbl.replace tbl code (1 + Option.value ~default:0 (Hashtbl.find_opt tbl code));
  if not (List.mem code documented) then begin
    failed := true;
    Printf.eprintf "undocumented exit %d: %s %s (%s)\n%!" code label
      (String.concat " " args) case
  end

let scenario ~sim ~lint path =
  let lines = String.split_on_char '\n' (read_file path) in
  List.iteri
    (fun i _ ->
      let kept = List.filteri (fun j _ -> j <> i) lines in
      let tmp = write_temp ~suffix:".dgmc" (String.concat "\n" kept) in
      let case = Printf.sprintf "%s without line %d" (Filename.basename path) (i + 1) in
      check "dgmc_sim script --check" ~case sim [ "script"; tmp; "--check" ];
      check "dgmc_lint" ~case lint [ tmp ];
      Sys.remove tmp)
    (* The last element is what follows the final newline. *)
    (List.filteri (fun i _ -> i < List.length lines - 1) lines)

let modes =
  [ []; [ "--json" ]; [ "--summary" ]; [ "--convergence" ]; [ "--divergence" ];
    [ "--chain"; "0" ] ]

let trace ~report path =
  let bytes = read_file path in
  let len = String.length bytes in
  let clean =
    match String.index_from_opt bytes (len / 2) '\n' with
    | Some i -> i + 1
    | None -> len / 2
  in
  List.iter
    (fun cut ->
      let tmp = write_temp ~suffix:".jsonl" (String.sub bytes 0 cut) in
      let case = Printf.sprintf "%s cut at byte %d of %d" (Filename.basename path) cut len in
      List.iter (fun mode -> check "dgmc_report" ~case report (tmp :: mode)) modes;
      Sys.remove tmp)
    [ len / 3; clean; len - 1 ]

let () =
  match Array.to_list Sys.argv with
  | _ :: sim :: lint :: report :: files ->
    List.iter
      (fun f ->
        if Filename.check_suffix f ".dgmc" then scenario ~sim ~lint f
        else trace ~report f)
      files;
    List.iter
      (fun (label, tbl) ->
        let codes = List.sort (fun (a, _) (b, _) -> Int.compare a b) (Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl []) in
        Printf.printf "%s: %d runs; %s\n" label
          (List.fold_left (fun acc (_, n) -> acc + n) 0 codes)
          (String.concat ", " (List.map (fun (c, n) -> Printf.sprintf "exit %d x%d" c n) codes)))
      !tallies;
    if !failed then exit 1
  | _ ->
    prerr_endline "usage: contract.exe SIM LINT REPORT FILE...";
    exit 2
