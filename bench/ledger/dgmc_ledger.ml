(* dgmc_ledger: the repository's benchmark.

     dgmc_ledger --workload W [--seed S] [--seconds N] [--trace 0|1|FILE]
                 [--record FILE]
     dgmc_ledger --smoke
     dgmc_ledger --compare A.jsonl B.jsonl
     dgmc_ledger --write-expected

   A run plays the workload's fixed rounds of cells in one domain (N
   seconds is only a guard: no round starts after 3N), checks every
   cell's result line, and prints each metric BENCHMARK.json lists, by
   name and unit; its last line is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Untraced runs report
   the end-to-end metrics, traced runs the per-layer ones and write the
   ledger's spans as JSONL.  See README.md in this directory. *)

(* Paths from the root of the checkout, where every mode runs. *)
let benchmark_path = "BENCHMARK.json"

let expected_dir = "bench/ledger/expected"

let fmt x =
  (* dgmc-analyze: allow float-format — human-facing report *)
  Printf.sprintf "%.6g" x

let pct x =
  (* dgmc-analyze: allow float-format — human-facing report *)
  Printf.sprintf "%.1f%%" (100.0 *. x)

let fail fmt_ =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("dgmc_ledger: " ^ s);
      exit 2)
    fmt_

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Metrics are (name, unit, value). *)
let print_metrics title metrics =
  print_endline title;
  List.iter (fun (name, u, v) -> Printf.printf "  %-32s %14s %s\n" name (fmt v) u) metrics

let metrics_json entry metrics =
  String.concat ","
    (List.map
       (fun (name, u, v) -> Printf.sprintf {|"%s":%s|} (Sim.Json.escape name) (entry u v))
       metrics)

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} correct
    attempted failed
    (metrics_json
       (fun u v ->
         Printf.sprintf {|{"value":%s,"unit":"%s"}|}
           (Sim.Json.number (if Float.is_finite v then v else 0.0))
           (Sim.Json.escape u))
       metrics)

let record_line ~stamp ~(w : Workloads.t) ~seed ~seconds ~traced ~rounds ~correct
    ~attempted ~failed metrics =
  Printf.sprintf
    {|{"schema":"dgmc-ledger/2","stamp":%s,"workload":"%s","seed":%d,"seconds":%s,"traced":%b,"rounds":%d,"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    (Stamp.to_json stamp) w.name seed (Sim.Json.number seconds) traced rounds correct
    attempted failed
    (metrics_json (fun _ v -> Sim.Json.number v) metrics)

(* The metrics BENCHMARK.json lists, in its order, with this run's
   values; a listed metric the run does not compute fails a check. *)
let listed c (ms : Catalog.metric list) values =
  List.filter_map
    (fun (m : Catalog.metric) ->
      match List.assoc_opt m.name values with
      | Some v -> Some (m.name, m.unit_, v)
      | None ->
        Measure.problem c
          (Printf.sprintf "BENCHMARK.json lists %s, which this run does not compute" m.name);
        None)
    ms

(* ------------------------------------------------------------------ *)
(* Run settings *)

type settings = {
  deadline : float;  (** Seconds after which no round starts. *)
  pass_reps : int;  (** Repetitions of each instrument pass. *)
  replay_events : int;
  replay_floods : int;
  replay_reps : int;
}

let full seconds =
  {
    deadline = 3.0 *. seconds;
    pass_reps = 3;
    replay_events = 400_000;
    replay_floods = 400;
    replay_reps = 5;
  }

let smoke_settings =
  {
    deadline = infinity;
    pass_reps = 1;
    replay_events = 10_000;
    replay_floods = 10;
    replay_reps = 1;
  }

type outcome = {
  checks : Measure.checks;
  rounds : int;  (** Rounds played. *)
  metrics : (string * float) list;  (** Selected by BENCHMARK.json for the JSON line. *)
  extra : (string * string * float) list;  (** Printed and recorded, not in the JSON line. *)
}

let describe cells =
  List.fold_left
    (fun acc (c : Cell.spec) ->
      let k = Printf.sprintf "%s n=%d" (Cell.proto_name c.proto) c.n in
      match acc with
      | (k', m) :: rest when String.equal k k' -> (k, m + 1) :: rest
      | _ -> (k, 1) :: acc)
    [] cells
  |> List.rev_map (fun (k, m) -> Printf.sprintf "%s x%d" k m)
  |> String.concat ", "

let print_rounds ~planned (rounds : Measure.round list) =
  Printf.printf "rounds: %d, %d cells, median round wall %s s\n" (List.length rounds)
    (List.length (Measure.results rounds))
    (fmt (Layers.median (List.map Measure.wall rounds)));
  if List.length rounds < planned then
    Printf.printf "deadline: stopped after %d of %d rounds\n" (List.length rounds) planned

let print_checks (c : Measure.checks) =
  Printf.printf "checks: %d cell runs, %d failed\n" c.attempted c.failed;
  List.iter (fun p -> Printf.printf "  FAILED %s\n" p) (List.rev c.problems)

let untraced_recorder () = Span.recorder ~traced:false

(* ------------------------------------------------------------------ *)
(* Untraced run *)

let untraced (w : Workloads.t) ~cells_of ~rounds:planned ~settings ~harness_cells =
  let c = Measure.checks () in
  let fixtures = Measure.load_fixtures ~dir:expected_dir ~workload:w.name in
  let rounds =
    Measure.run_rounds (untraced_recorder ()) ~inst:w.instruments ~cells_of ~rounds:planned
      ~deadline:settings.deadline ~sampled:true
  in
  let metrics, extra = Measure.end_to_end rounds in
  let rs = Measure.results rounds in
  Measure.check_results c ~fixtures ~reference:[] rs;
  (* Determinism: the first round again must print the same lines. *)
  let again = Measure.run_once (untraced_recorder ()) ~inst:w.instruments (cells_of 0) in
  Measure.check_results c ~fixtures:[]
    ~reference:(Measure.lines_of (Measure.round_results (List.hd rounds)))
    (Measure.round_results again);
  Measure.check_harness c ~lines:(Measure.lines_of rs) harness_cells;
  print_rounds ~planned rounds;
  let failed_frac = Measure.ratio (float_of_int c.failed) (float_of_int c.attempted) in
  {
    checks = c;
    rounds = List.length rounds;
    metrics;
    extra = extra @ [ ("failed_frac", "ratio", failed_frac) ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run *)

let print_layer_table (l : Layers.t) =
  let rows =
    List.map (fun name -> (name, Layers.row l name)) (Layers.names l)
    |> List.sort (fun (_, (a : Layers.row)) (_, (b : Layers.row)) ->
           Float.compare b.self_s a.self_s)
  in
  Printf.printf "per-layer table (%d traced rounds, %s s; per round):\n" l.rounds (fmt l.wall);
  Metrics.Table.print
    ~align:[ Metrics.Table.Left; Metrics.Table.Left ]
    ~headers:[ "layer"; "row"; "share of wall"; "count"; "self s"; "minor words" ]
    (List.map
       (fun (name, (r : Layers.row)) ->
         [
           Layers.layer_of name;
           name;
           pct (Measure.ratio r.self_s l.wall);
           fmt (Layers.per_round l r.calls);
           fmt (Layers.per_round l r.self_s);
           fmt (Layers.per_round l r.minor);
         ])
       rows);
  let accounted = List.fold_left (fun a (_, (r : Layers.row)) -> a +. r.self_s) 0.0 rows in
  Printf.printf "rows account for %s of the rounds' wall\n" (pct (Measure.ratio accounted l.wall));
  let protos = List.map fst (Layers.SM.bindings l.cell_wall) in
  if List.length protos > 1 then begin
    print_endline "by protocol (per round):";
    Metrics.Table.print
      ~align:[ Metrics.Table.Left ]
      ~headers:[ "protocol"; "cells wall s"; "net.dijkstra self s"; "dijkstra share" ]
      (List.map
         (fun p ->
           let get m = Option.value ~default:0.0 (Layers.SM.find_opt p m) in
           let cw = get l.cell_wall and dj = get l.cell_dijkstra in
           [
             p;
             fmt (Layers.per_round l cw);
             fmt (Layers.per_round l dj);
             pct (Measure.ratio dj cw);
           ])
         protos)
  end

(* The cell whose graph and transport the flooding replay uses. *)
let replay_cell (w : Workloads.t) ~seed =
  List.find (fun (c : Cell.spec) -> Cell.is_dgmc c.proto) (Workloads.smoke w ~seed)

let traced_run (w : Workloads.t) ~seed ~cells_of ~rounds:planned ~settings ~harness_cells
    ~spans_path ~stamp =
  let c = Measure.checks () in
  let fixtures = Measure.load_fixtures ~dir:expected_dir ~workload:w.name in
  let t0 = Span.now () in
  (* The untraced reference: the traced run must reproduce its lines
     byte for byte, and its wall prices the tracing. *)
  let reference = Measure.run_once (untraced_recorder ()) ~inst:w.instruments (cells_of 0) in
  let rec_ = Span.recorder ~traced:true in
  Metrics.Phase.set_ambient (Span.phase rec_);
  let rounds =
    Fun.protect
      ~finally:(fun () -> Metrics.Phase.set_ambient Metrics.Phase.disabled)
      (fun () ->
        Measure.run_rounds rec_ ~inst:w.instruments ~cells_of ~rounds:planned
          ~deadline:(settings.deadline -. (Span.now () -. t0))
          ~sampled:false)
  in
  let rs = Measure.results rounds in
  Measure.check_results c ~fixtures
    ~reference:(Measure.lines_of (Measure.round_results reference))
    rs;
  Measure.check_harness c ~lines:(Measure.lines_of rs) harness_cells;
  let unbalanced = Metrics.Phase.unbalanced_leaves (Span.phase rec_) in
  if unbalanced > 0 then
    Measure.problem c (Printf.sprintf "phase probe: %d unbalanced leaves" unbalanced);
  print_rounds ~planned rounds;
  let passes, _ =
    Span.time rec_ ~cell:(-1) "probe.instruments" (fun () ->
        Measure.instrument_passes c ~cells:(Workloads.telemetry_probe ~seed)
          ~reps:settings.pass_reps)
  in
  let queue_peak = List.fold_left (fun a (r : Cell.result) -> Int.max a r.queue_peak) 0 rs in
  let ns_per_event, _ =
    Span.time rec_ ~cell:(-1) "replay.sim" (fun () ->
        Measure.engine_replay ~depth:queue_peak ~events:settings.replay_events
          ~reps:settings.replay_reps)
  in
  let ns_per_message, _ =
    Span.time rec_ ~cell:(-1) "replay.lsr" (fun () ->
        Measure.flood_replay (replay_cell w ~seed) ~floods:settings.replay_floods
          ~reps:settings.replay_reps)
  in
  (* Cell ids were handed out in result order. *)
  let specs = Array.of_list (List.map (fun (r : Cell.result) -> r.spec) rs) in
  let layers =
    Layers.of_spans ~proto_of_cell:(fun id -> Cell.proto_name specs.(id).proto) (Span.spans rec_)
  in
  let t =
    {
      Measure.layers;
      rounds;
      passes;
      ns_per_event;
      ns_per_message;
      overhead = Measure.ratio (Measure.wall (List.hd rounds)) (Measure.wall reference) -. 1.0;
    }
  in
  print_layer_table layers;
  let metrics = Measure.per_layer t in
  let extra = Measure.workload_rows t ~size_of_cell:(fun id -> specs.(id).n) in
  mkdir_p (Filename.dirname spans_path);
  Span.write rec_ ~path:spans_path
    ~header:
      (Printf.sprintf {|{"schema":"dgmc-ledger-spans/1","workload":"%s","seed":%d,"stamp":%s}|}
         w.name seed (Stamp.to_json stamp));
  (match Span.check_file spans_path with
  | Ok k -> Printf.printf "spans: %d written to %s, well formed\n" k spans_path
  | Error e -> Measure.problem c (Printf.sprintf "span file %s: %s" spans_path e));
  { checks = c; rounds = List.length rounds; metrics; extra }

(* ------------------------------------------------------------------ *)
(* Modes *)

(* Every failed cell check also leaves a problem. *)
let correct (c : Measure.checks) = List.is_empty c.problems

let read_benchmark () =
  match Catalog.read_benchmark benchmark_path with
  | Ok b -> b
  | Error e -> fail "%s" e

(* The run's metrics as BENCHMARK.json lists them for its mode. *)
let reported (bench : Catalog.benchmark) ~traced o =
  listed o.checks (if traced then bench.per_layer else bench.end_to_end) o.metrics

let measure_mode ~workload ~seed ~seconds ~trace ~record =
  let bench = read_benchmark () in
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None ->
      fail "unknown workload %S (known: %s)" workload
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))
  in
  let stamp = Stamp.current () in
  let cells_of = Workloads.round w ~seed in
  let settings = full seconds in
  let harness_cells = Workloads.smoke w ~seed in
  Printf.printf "dgmc_ledger --workload %s --seed %d --seconds %s (%s)\n" w.name seed
    (fmt seconds)
    (match trace with None -> "untraced" | Some p -> "traced, spans to " ^ p);
  Printf.printf "stamp: %s\n" (Stamp.describe stamp);
  Printf.printf "round: %s; %d rounds\n" (describe (cells_of 0)) w.rounds;
  let o =
    match trace with
    | None -> untraced w ~cells_of ~rounds:w.rounds ~settings ~harness_cells
    | Some spans_path ->
      traced_run w ~seed ~cells_of ~rounds:w.rounds ~settings ~harness_cells ~spans_path ~stamp
  in
  let metrics = reported bench ~traced:(Option.is_some trace) o in
  print_checks o.checks;
  print_metrics
    (match trace with
    | None -> "end-to-end metrics:"
    | Some _ -> "per-layer metrics (per round):")
    metrics;
  if o.extra <> [] then print_metrics "also:" o.extra;
  let ok = correct o.checks in
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          output_string oc
            (record_line ~stamp ~w ~seed ~seconds ~traced:(Option.is_some trace)
               ~rounds:o.rounds ~correct:ok ~attempted:o.checks.attempted
               ~failed:o.checks.failed (metrics @ o.extra));
          output_char oc '\n'))
    record;
  print_endline
    (json_line ~correct:ok ~attempted:o.checks.attempted ~failed:o.checks.failed metrics)

(* Every workload on its two smallest cells, untraced and traced: result
   lines against the fixtures and Experiments.Harness, every metric of
   BENCHMARK.json reported, both JSON lines parseable. *)
let smoke_mode () =
  let bench = read_benchmark () in
  let problems = ref [] in
  let problem fmt_ = Printf.ksprintf (fun s -> problems := s :: !problems) fmt_ in
  let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  if List.sort String.compare names <> List.sort String.compare bench.workloads then
    problem "BENCHMARK.json workloads differ from the ledger's";
  let stamp = Stamp.current () in
  let check_json ~what line (expected : Catalog.metric list) =
    match Sim.Json.parse line with
    | Error e -> problem "%s: JSON line does not parse: %s" what e
    | Ok j -> (
      match Sim.Json.member "metrics" j with
      | Some (Sim.Json.Obj fields) ->
        if List.map fst fields <> List.map (fun (m : Catalog.metric) -> m.name) expected then
          problem "%s: JSON metrics differ from BENCHMARK.json" what
      | _ -> problem "%s: JSON line has no metrics object" what)
  in
  List.iter
    (fun (w : Workloads.t) ->
      let seed = 1 in
      let cells = Workloads.smoke w ~seed in
      Printf.printf "== %s: %s\n" w.name (describe cells);
      let fixtures = Measure.load_fixtures ~dir:expected_dir ~workload:w.name in
      List.iter
        (fun (c : Cell.spec) ->
          if not (List.mem_assoc (Cell.key c) fixtures) then
            problem "%s: no fixture line for %s" w.name (Cell.key c))
        cells;
      let cells_of _ = cells in
      let u = untraced w ~cells_of ~rounds:1 ~settings:smoke_settings ~harness_cells:cells in
      let spans_path = Printf.sprintf ".bench_build/ledger/smoke-%s.spans.jsonl" w.name in
      let t =
        traced_run w ~seed ~cells_of ~rounds:1 ~settings:smoke_settings ~harness_cells:cells
          ~spans_path ~stamp
      in
      let um = reported bench ~traced:false u and tm = reported bench ~traced:true t in
      List.iter
        (fun (o, what) ->
          List.iter (fun p -> problem "%s %s: %s" w.name what p) (List.rev o.checks.problems))
        [ (u, "untraced"); (t, "traced") ];
      print_metrics "end-to-end:" um;
      print_metrics "per-layer:" tm;
      let line = json_line ~correct:true ~attempted:1 ~failed:0 in
      check_json ~what:(w.name ^ " untraced") (line um) bench.end_to_end;
      check_json ~what:(w.name ^ " traced") (line tm) bench.per_layer)
    Workloads.all;
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) ps;
    exit 1

(* Regenerate the fixtures: every round of every workload at each
   fixture seed, every cell converged and, where the harness has the
   cell, equal to what it returns. *)
let write_expected_mode () =
  mkdir_p expected_dir;
  let bad = ref 0 in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun seed ->
          let c = Measure.checks () in
          let rs =
            List.concat_map
              (fun k ->
                Measure.round_results
                  (Measure.run_once (untraced_recorder ()) ~inst:w.instruments
                     (Workloads.round w ~seed k)))
              (List.init w.rounds Fun.id)
          in
          Measure.check_results c ~fixtures:[] ~reference:[] rs;
          Measure.check_harness c ~lines:(Measure.lines_of rs)
            (List.map (fun (r : Cell.result) -> r.spec) rs);
          let path = Measure.fixture_path ~dir:expected_dir ~workload:w.name ~seed in
          Printf.printf "%s: %d cells, %d failed checks\n%!" path (List.length rs) c.failed;
          List.iter (fun p -> Printf.printf "  FAILED %s\n" p) (List.rev c.problems);
          if c.failed > 0 then incr bad
          else
            Out_channel.with_open_text path (fun oc ->
                List.iter
                  (fun (r : Cell.result) ->
                    output_string oc r.line;
                    output_char oc '\n')
                  rs))
        Measure.fixture_seeds)
    Workloads.all;
  if !bad > 0 then exit 1

let usage () =
  prerr_endline
    "usage: dgmc_ledger --workload W [--seed S] [--seconds N] [--trace 0|1|FILE] [--record FILE]\n\
    \       dgmc_ledger --smoke\n\
    \       dgmc_ledger --compare A.jsonl B.jsonl\n\
    \       dgmc_ledger --write-expected";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref None and record = ref None and mode = ref `Measure in
  let int_arg v = match int_of_string_opt v with Some i -> i | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_int (int_arg v);
      parse rest
    | "--trace" :: v :: rest ->
      trace := Some v;
      parse rest
    | "--record" :: v :: rest ->
      record := Some v;
      parse rest
    | "--smoke" :: rest ->
      mode := `Smoke;
      parse rest
    | "--write-expected" :: rest ->
      mode := `Write_expected;
      parse rest
    | "--compare" :: a :: b :: rest ->
      mode := `Compare (a, b);
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !mode with
  | `Smoke -> smoke_mode ()
  | `Write_expected -> write_expected_mode ()
  | `Compare (a, b) -> exit (Compare_runs.run ~benchmark:(read_benchmark ()) a b)
  | `Measure ->
    let workload = match !workload with Some w -> w | None -> usage () in
    let trace =
      match !trace with
      | None | Some "0" -> None
      | Some "1" ->
        Some (Printf.sprintf ".bench_build/ledger/%s.seed%d.spans.jsonl" workload !seed)
      | Some path -> Some path
    in
    measure_mode ~workload ~seed:!seed ~seconds:!seconds ~trace ~record:!record
