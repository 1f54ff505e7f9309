(* The exit-code contract of the three input-reading binaries, over
   mutated inputs and option values.

     contract.exe SIM LINT REPORT FILE...

   Each [.dgmc] FILE is run through [SIM script --check] and [LINT]
   once per line with that line deleted, and once per line that has a
   token with its last token replaced by [x].  Each [.jsonl] FILE is
   cut at three byte offsets (a third of the way in, just after the
   newline nearest the middle, and one byte short of the end), and
   separately has the byte at each of those offsets flipped (every bit
   inverted); each cut and each flip is run through every [REPORT]
   mode.  Each command of [SIM] is run once at small values of its
   numeric options, which it must accept (exit 0 or 1), and every
   numeric option of [SIM] and [REPORT] is run at 0 and at -1, the
   other options of its command at those small values, on the first
   [.dgmc] and [.jsonl] FILE.  ([LINT] and dgmc_analyze take no
   numeric option.)

   Every exit code must be one the binary documents: 0, 1 or 2, and for
   an option value of [SIM] also 124, the usage error; never 125, the
   uncaught exception.  Prints, per kind of run, how many runs ended
   with each code; a run outside the set is also named on stderr, and
   the program then exits 1. *)

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

let check ?(documented = documented) label ~case prog args =
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

(* [line], trimmed, with its last space-separated token replaced by
   [x]; [None] when it has no token. *)
let last_token_x line =
  match List.rev (String.split_on_char ' ' (String.trim line)) with
  | [] | [ "" ] -> None
  | _ :: rest -> Some (String.concat " " (List.rev ("x" :: rest)))

let scenario ~sim ~lint path =
  let lines = String.split_on_char '\n' (read_file path) in
  let through suffix ~case text =
    let tmp = write_temp ~suffix:".dgmc" text in
    check ("dgmc_sim script --check" ^ suffix) ~case sim [ "script"; tmp; "--check" ];
    check ("dgmc_lint" ^ suffix) ~case lint [ tmp ];
    Sys.remove tmp
  in
  (* The last element is what follows the final newline. *)
  let numbered = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  List.iteri
    (fun i _ ->
      let kept = List.filteri (fun j _ -> j <> i) lines in
      let case = Printf.sprintf "%s without line %d" (Filename.basename path) (i + 1) in
      through "" ~case (String.concat "\n" kept))
    numbered;
  List.iteri
    (fun i line ->
      Option.iter
        (fun mutated ->
          let case =
            Printf.sprintf "%s with line %d's last token x" (Filename.basename path) (i + 1)
          in
          through ", line mutated" ~case
            (String.concat "\n" (List.mapi (fun j l -> if j = i then mutated else l) lines)))
        (last_token_x line))
    numbered

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
  let offsets = [ len / 3; clean; len - 1 ] in
  let through label ~case text =
    let tmp = write_temp ~suffix:".jsonl" text in
    List.iter (fun mode -> check label ~case report (tmp :: mode)) modes;
    Sys.remove tmp
  in
  let name = Filename.basename path in
  List.iter
    (fun cut ->
      through "dgmc_report"
        ~case:(Printf.sprintf "%s cut at byte %d of %d" name cut len)
        (String.sub bytes 0 cut))
    offsets;
  List.iter
    (fun at ->
      through "dgmc_report, byte flipped"
        ~case:(Printf.sprintf "%s with byte %d of %d flipped" name at len)
        (String.mapi
           (fun i c -> if i = at then Char.chr (Char.code c lxor 0xff) else c)
           bytes))
    offsets

(* Each command of [SIM] with small values for its numeric options (so
   an accepted value runs in milliseconds), the base values, and which
   of them to set to 0 and -1 in turn; an option is spelled [--name=V],
   or [-nV] when short. *)
let sim_commands ~scenario =
  let fig = [ ("--sizes", "20"); ("--graphs", "1"); ("--domains", "1") ] in
  [
    ([ "fig6" ], fig @ [ ("--members", "2") ]);
    ([ "fig7" ], fig @ [ ("--members", "2") ]);
    ([ "fig8" ], fig @ [ ("--events", "2"); ("--gap", "5") ]);
    ([ "compare" ], fig @ [ ("--members", "2"); ("--sources", "1") ]);
    ([ "cbt" ], [ ("-n", "10"); ("--receivers", "3"); ("--senders", "1"); ("--seed", "1") ]);
    ([ "ablation" ], [ ("--graphs", "1") ]);
    ( [ "hierarchy" ],
      [ ("--graphs", "1"); ("--areas", "3"); ("--per-area", "3"); ("--events", "1");
        ("--domains", "1") ] );
    ([ "extra" ], [ ("--graphs", "1") ]);
    ([ "run" ], [ ("-n", "10"); ("--members", "2"); ("--seed", "1") ]);
    ([ "script"; scenario ], [ ("--fault-seed", "1") ]);
    ([ "topo" ], [ ("-n", "10"); ("--seed", "1") ]);
    ([ "--fuzz" ], [ ("--iterations", "1"); ("--seed", "1"); ("--domains", "1") ]);
    ( [ "--search"; "forward"; "--graph"; "ring 3"; "--race"; "join 0 mc=1" ],
      [ ("--max-states", "100"); ("--domains", "1") ] );
    ([ "--search"; "backward" ], [ ("--max-len", "1"); ("--max-states", "100") ]);
  ]

let spell (name, v) =
  if String.length name = 2 then name ^ v else name ^ "=" ^ v

let options ~sim ~report ~scenario ~capture =
  List.iter
    (fun (command, opts) ->
      let args = command @ List.map spell opts in
      check "dgmc_sim options at base values" ~documented:[ 0; 1 ]
        ~case:(String.concat " " args) sim args;
      List.iter
        (fun (name, _) ->
          List.iter
            (fun v ->
              let args =
                command
                @ List.map (fun (n, d) -> spell (n, if n = name then v else d)) opts
              in
              check "dgmc_sim options at 0 and -1" ~documented:(124 :: documented)
                ~case:(String.concat " " args) sim args)
            [ "0"; "-1" ])
        opts)
    (sim_commands ~scenario);
  List.iter
    (fun v ->
      check "dgmc_report options at 0 and -1" ~case:("--chain=" ^ v) report
        [ capture; "--chain=" ^ v ])
    [ "0"; "-1" ]

let () =
  match Array.to_list Sys.argv with
  | _ :: sim :: lint :: report :: files ->
    let dgmc, jsonl = List.partition (fun f -> Filename.check_suffix f ".dgmc") files in
    List.iter (scenario ~sim ~lint) dgmc;
    List.iter (trace ~report) jsonl;
    options ~sim ~report ~scenario:(List.hd dgmc) ~capture:(List.hd jsonl);
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
