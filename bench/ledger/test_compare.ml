(* Verdicts of [--compare] on synthetic records: pairing by seed, the
   bounds, and runs that fail cells.  Exits 1 on the first wrong verdict. *)

let bench =
  let m name better bound = { Catalog.name; unit_ = "u"; better; bound = Some bound } in
  {
    Catalog.workloads = [ "w" ];
    end_to_end = [ m "wall_s" "lower" 0.10; m "alloc_words_per_event" "lower" 0.01 ];
    per_layer = [];
  }

let stamp =
  { Stamp.commit = "c"; cpu = "cpu"; nproc = 2; ocaml = Sys.ocaml_version; domains = 1 }

(* Five seeds whose costs differ by far more than any bound, as graphs
   of different seeds do. *)
let side ?(failed_seed = -1) ~wall ~alloc () =
  List.map
    (fun seed ->
      let k = float_of_int seed in
      let failed = if seed = failed_seed then 1 else 0 in
      {
        Compare_runs.stamp;
        workload = "w";
        seed;
        traced = false;
        rounds = 10;
        correct = failed = 0;
        attempted = 20;
        failed;
        metrics =
          [
            ("wall_s", wall *. (1.0 +. (0.3 *. k)));
            ("alloc_words_per_event", alloc *. (1.0 +. (0.2 *. k)));
          ];
      })
    [ 1; 2; 3; 4; 5 ]

let bad = ref 0

let expect what b ~metric verdict =
  let r = Compare_runs.compare bench (side ~wall:1.0 ~alloc:1000.0 ()) b in
  match List.find_opt (fun (x : Compare_runs.row) -> String.equal x.metric metric) r.rows with
  | Some x when x.verdict = verdict -> ()
  | found ->
    incr bad;
    Printf.printf "FAILED %s: %s is %s, expected %s\n" what metric
      (match found with
      | Some x -> Compare_runs.verdict_name x.verdict
      | None -> "missing")
      (Compare_runs.verdict_name verdict)

let () =
  let same = side ~wall:1.0 ~alloc:1000.0 () in
  expect "identical runs" same ~metric:"wall_s" Compare_runs.Within;
  expect "identical runs" same ~metric:"alloc_words_per_event" Compare_runs.Within;
  expect "identical runs" same ~metric:"failed cell runs" Compare_runs.Within;
  (* 2% more allocation on every seed: far inside the seeds' spread, but
     every pair moves by the same share. *)
  let alloc = side ~wall:1.0 ~alloc:1020.0 () in
  expect "2% more allocation" alloc ~metric:"alloc_words_per_event" Compare_runs.Regression;
  expect "2% more allocation" alloc ~metric:"wall_s" Compare_runs.Within;
  let faster = side ~wall:0.8 ~alloc:1000.0 () in
  expect "20% faster" faster ~metric:"wall_s" Compare_runs.Improved;
  (* Faster because a cell failed: never an improvement. *)
  let broken = side ~failed_seed:3 ~wall:0.8 ~alloc:1000.0 () in
  expect "20% faster, one cell failed" broken ~metric:"failed cell runs" Compare_runs.Regression;
  expect "20% faster, one cell failed" broken ~metric:"wall_s" Compare_runs.Void;
  (* Seeds only one side ran are left out, not compared. *)
  let other_seeds =
    List.map (fun (r : Compare_runs.record) -> { r with seed = r.seed + 100 }) same
  in
  let r = Compare_runs.compare bench same other_seeds in
  if r.rows <> [] then begin
    incr bad;
    print_endline "FAILED unpaired seeds: rows were judged"
  end;
  if !bad > 0 then exit 1 else print_endline "test_compare: ok"
