(* One workload run: its fixed rounds, output checks, end-to-end
   metrics, and — in traced runs — the per-layer metrics, the instrument
   passes and the isolated replays. *)

(* A cell as a run played it: its wall seconds, and the factor that
   scales its times to the calibration host's speed ([1.0] where the run
   took no speed samples). *)
type played = { result : Cell.result; wall : float; speed : float }

type round = played list

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l

let sumi f l = List.fold_left (fun a x -> a + f x) 0 l

let ratio a b = if Float.equal b 0.0 then 0.0 else a /. b

let round_results (r : round) = List.map (fun p -> p.result) r

let results rounds = List.concat_map round_results rounds

let wall (r : round) = sum (fun p -> p.wall) r

(* One round of cells, with cell ids from [first] on.  Given the [last]
   speed sample, a new one follows every cell, and the cell's factor
   comes from the samples on either side of it. *)
let run_round ?last rec_ ~inst ~first cells =
  fst
    (Span.time rec_ ~cell:(-1) "round" (fun () ->
         List.mapi
           (fun i spec ->
             let t0 = Span.now () in
             let result = Cell.run rec_ ~cell:(first + i) ~inst spec in
             let wall = Span.now () -. t0 in
             let speed =
               match last with
               | None -> 1.0
               | Some last ->
                 let before = !last in
                 last := Speed.sample ();
                 Speed.factor ~before ~after:!last
             in
             { result; wall; speed })
           cells))

let run_once rec_ ~inst cells = run_round rec_ ~inst ~first:0 cells

(* Rounds [cells_of 0] to [cells_of (rounds - 1)].  Before each round a
   full major collection frees the last round's garbage, so that no
   round pays for another's and the peak heap is set within one round,
   not by where major cycles happen to fall across rounds.  With
   [sampled], a speed sample follows the collection and every cell.
   Every commit plays the same cells; [deadline] seconds only stop a run
   that would not end, and the caller reports the rounds it got. *)
let run_rounds rec_ ~inst ~cells_of ~rounds ~deadline ~sampled =
  let t0 = Span.now () in
  let settle () =
    Gc.full_major ();
    if sampled then Some (ref (Speed.sample ())) else None
  in
  (* The first sample warms the kernel up. *)
  ignore (settle ());
  let rec go k first acc =
    if k >= rounds || (k > 0 && Span.now () -. t0 > deadline) then List.rev acc
    else begin
      let cells = cells_of k in
      let round = run_round ?last:(settle ()) rec_ ~inst ~first cells in
      go (k + 1) (first + List.length cells) (round :: acc)
    end
  in
  go 0 0 []

(* ------------------------------------------------------------------ *)
(* Output checks *)

(* The cell key a result or fixture line starts with. *)
let line_key line =
  let marks = [ " events="; " error=" ] in
  let ll = String.length line in
  List.find_map
    (fun mark ->
      let lm = String.length mark in
      let rec find i =
        if i + lm > ll then None
        else if String.equal (String.sub line i lm) mark then Some (String.sub line 0 i)
        else find (i + 1)
      in
      find 0)
    marks

let fixture_path ~dir ~workload ~seed =
  Filename.concat dir (Printf.sprintf "%s.seed%d.txt" workload seed)

let fixture_seeds = [ 1; 101 ]

let load_fixtures ~dir ~workload =
  List.concat_map
    (fun seed ->
      let path = fixture_path ~dir ~workload ~seed in
      if Sys.file_exists path then
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter_map (fun l -> Option.map (fun k -> (k, l)) (line_key l))
      else [])
    fixture_seeds

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** Newest first. *)
}

let checks () = { attempted = 0; failed = 0; problems = [] }

let problem c msg = c.problems <- msg :: c.problems

(* Count one checked cell run; [issues] are its failed checks. *)
let tally c issues =
  c.attempted <- c.attempted + 1;
  match issues with
  | [] -> ()
  | _ ->
    c.failed <- c.failed + 1;
    List.iter (problem c) issues

let differs what key got expected =
  Printf.sprintf "%s: output differs from %s\n  got      %s\n  expected %s" key what got
    expected

(* Every result against the committed fixtures and against [reference]
   lines of the same cells (another run of them). *)
let check_results c ~fixtures ~reference rs =
  List.iter
    (fun (r : Cell.result) ->
      let key = Cell.key r.spec in
      let against what table =
        match List.assoc_opt key table with
        | Some exp when not (String.equal exp r.line) -> Some (differs what key r.line exp)
        | Some _ | None -> None
      in
      tally c
        (List.filter_map Fun.id
           [
             Option.map (fun f -> Printf.sprintf "%s: %s" key f) r.failure;
             against "another run of the same cell" reference;
             against "the committed fixture" fixtures;
           ]))
    rs

let lines_of rs = List.map (fun (r : Cell.result) -> (Cell.key r.spec, r.line)) rs

(* Run cells through [Experiments.Harness] and demand the ledger's lines:
   the ledger's drivers must measure the program the figures run. *)
let check_harness c ~lines specs =
  List.iter
    (fun (spec : Cell.spec) ->
      match Cell.harness_line spec with
      | None -> ()
      | Some h ->
        let key = Cell.key spec in
        tally c
          (match List.assoc_opt key lines with
          | Some l when String.equal l h -> []
          | Some l -> [ differs "Experiments.Harness" key l h ]
          | None -> [ Printf.sprintf "%s: no ledger line to compare" key ]))
    specs

(* ------------------------------------------------------------------ *)
(* End-to-end metrics *)

let events rs = sumi (fun (r : Cell.result) -> r.events) rs

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The metrics BENCHMARK.json bounds, and rows printed beside them with
   their units.  Times are scaled by their cell's speed factor; the
   raw.* rows are the seconds as measured. *)
let end_to_end rounds =
  let rs = results rounds in
  let ev = float_of_int (events rs) in
  let per_round f speed = List.map (sum (fun p -> speed p *. f p)) rounds in
  let total f speed = sum Fun.id (per_round f speed) in
  let mean xs = sum Fun.id xs /. float_of_int (List.length xs) in
  let measured p = p.result.Cell.measured_s and setup p = p.result.Cell.setup_s in
  let cell_wall p = p.wall in
  let scaled p = p.speed and raw _ = 1.0 in
  ( [
      ("events_per_s", ratio ev (total measured scaled));
      ("wall_s", mean (per_round cell_wall scaled));
      ("setup_s", Layers.median (per_round setup scaled));
      ("alloc_words_per_event", ratio (sum (fun (r : Cell.result) -> r.minor_words) rs) ev);
      ("peak_heap_mb", peak_heap_mb ());
    ],
    [
      ("raw.events_per_s", "1/s", ratio ev (total measured raw));
      ("raw.wall_s", "s", mean (per_round cell_wall raw));
      ("raw.setup_s", "s", Layers.median (per_round setup raw));
      ("speed_factor", "ratio", Layers.median (List.map scaled (List.concat rounds)));
    ] )

(* ------------------------------------------------------------------ *)
(* Instrument passes: the same cells with exactly one telemetry
   instrument on, against all off. *)

type passes = {
  p_wall : (string * float) list;  (** Median wall per pass. *)
  p_entries : int;
  p_dropped : int;
}

let instrument_passes c ~cells ~reps =
  let off = Cell.no_instruments in
  let passes =
    [
      ("off", off);
      ("trace", { off with Cell.trace = true });
      ("registry", { off with Cell.registry = true });
      ("series", { off with Cell.series = true });
    ]
  in
  let runs =
    List.concat_map
      (fun _ ->
        List.map
          (fun (name, inst) -> (name, run_once (Span.recorder ~traced:false) ~inst cells))
          passes)
      (List.init reps Fun.id)
  in
  let of_pass name =
    List.filter_map (fun (n, r) -> if String.equal n name then Some r else None) runs
  in
  let reference = lines_of (round_results (List.hd (of_pass "off"))) in
  List.iter
    (fun (name, r) ->
      check_results c ~fixtures:[]
        ~reference:(if String.equal name "off" then [] else reference)
        (round_results r))
    runs;
  let traced = round_results (List.hd (of_pass "trace")) in
  {
    p_wall =
      List.map
        (fun (name, _) ->
          (name, Layers.median (List.map wall (of_pass name))))
        passes;
    p_entries = sumi (fun (r : Cell.result) -> r.trace_entries) traced;
    p_dropped = sumi (fun (r : Cell.result) -> r.trace_dropped) traced;
  }

(* ------------------------------------------------------------------ *)
(* Isolated replays *)

(* The engine alone: a hold model at [depth] pending events, each no-op
   event scheduling its replacement. *)
let engine_replay ~depth ~events ~reps =
  let rng = Sim.Rng.create 0x5eed in
  let delays = Array.init 1024 (fun _ -> Sim.Rng.float rng 1.0) in
  let once () =
    let eng = Sim.Engine.create () in
    let i = ref 0 in
    let rec tick () =
      incr i;
      ignore (Sim.Engine.schedule eng ~delay:delays.(!i land 1023) tick)
    in
    for k = 1 to Int.max 1 depth do
      ignore (Sim.Engine.schedule eng ~delay:delays.(k land 1023) tick)
    done;
    let t0 = Span.now () in
    Sim.Engine.run ~max_events:events eng;
    (Span.now () -. t0) *. 1e9 /. float_of_int events
  in
  Layers.median (List.init reps (fun _ -> once ()))

(* Flooding alone on a cell's graph and transport: LSAs flooded one at a
   time to quiescence with a no-op [deliver]. *)
let flood_replay (spec : Cell.spec) ~floods ~reps =
  let graph = Experiments.Harness.graph_for ~seed:spec.seed ~n:spec.n in
  let config = Cell.config_of spec.proto in
  let n = Net.Graph.n_nodes graph in
  let once () =
    let engine = Sim.Engine.create () in
    let transmit =
      match spec.proto with
      | Cell.Dgmc_churn ->
        let plan = Faults.Plan.create ~spec:Cell.lossy_faults ~seed:spec.seed () in
        Some
          (fun ~src ~dst ~base_delay ->
            Faults.Plan.transmit plan ~src ~dst ~now:(Sim.Engine.now engine) ~base_delay)
      | Cell.Dgmc_burst | Cell.Dgmc_poisson | Cell.Brute_force | Cell.Mospf -> None
    in
    let fl =
      Lsr.Flooding.create ~engine ~graph ~t_hop:config.Dgmc.Config.t_hop
        ~mode:config.Dgmc.Config.flood_mode
        ~reliability:config.Dgmc.Config.reliability ?transmit
        ~deliver:(fun ~switch:_ (_ : unit Lsr.Lsa.t) -> ())
        ()
    in
    let t0 = Span.now () in
    for i = 0 to floods - 1 do
      Lsr.Flooding.flood fl (Lsr.Lsa.make ~origin:(i mod n) ~seq:(i / n) ());
      Sim.Engine.run engine
    done;
    let dt = Span.now () -. t0 in
    dt *. 1e9 /. float_of_int (Int.max 1 (Lsr.Flooding.messages_sent fl))
  in
  Layers.median (List.init reps (fun _ -> once ()))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics *)

type traced = {
  layers : Layers.t;
  rounds : round list;
  passes : passes;
  ns_per_event : float;
  ns_per_message : float;
  overhead : float;  (** Traced over untraced wall of round 0, minus 1. *)
}

let per_layer t =
  let rs = results t.rounds in
  let dg = List.filter (fun (r : Cell.result) -> Cell.is_dgmc r.spec.proto) rs in
  let total f (l : Cell.result list) = float_of_int (sumi f l) in
  let per_round v = Layers.per_round t.layers v in
  let count f = per_round (total f rs) in
  let self name = Layers.self t.layers name in
  let pass name = Option.value ~default:0.0 (List.assoc_opt name t.passes.p_wall) in
  let added name = pass name -. pass "off" in
  let telemetry = added "trace" +. added "registry" +. added "series" in
  let engine = total (fun r -> r.engine_events) in
  let dijkstra = (Layers.row t.layers "net.dijkstra").calls in
  [
    ("sim.events", count (fun r -> r.engine_events));
    ("sim.events_per_s", ratio (engine rs) t.layers.run_wall);
    ( "sim.queue_peak",
      float_of_int (List.fold_left (fun a (r : Cell.result) -> Int.max a r.queue_peak) 0 rs) );
    ("sim.ns_per_event_isolated", t.ns_per_event);
    ("lsr.floods", count (fun r -> r.floods));
    ("lsr.messages", count (fun r -> r.messages));
    ("lsr.acks", count (fun r -> r.acks));
    ("lsr.retransmissions", count (fun r -> r.retransmissions));
    ( "lsr.rtx_ratio",
      ratio (total (fun r -> r.retransmissions) rs) (total (fun r -> r.messages) rs) );
    ("lsr.dispatch_self_s", self "flood.dispatch");
    ("lsr.ns_per_message_isolated", t.ns_per_message);
    ("dgmc.create_s", Layers.inclusive t.layers "dgmc.create");
    ("dgmc.computations", per_round (total (fun r -> r.computations) dg));
    ( "dgmc.withdrawn_ratio",
      ratio (total (fun r -> r.withdrawn) dg) (total (fun r -> r.computations) dg) );
    ("dgmc.compute_self_s", self "dgmc.compute");
    ("dgmc.run_residual_s", self "dgmc.run");
    ( "dgmc.residual_ns_per_sim_event",
      1e9 *. ratio (Layers.row t.layers "dgmc.run").self_s (engine dg) );
    ("dgmc.check_s", Layers.inclusive t.layers "dgmc.check");
    ("mctree.sph.calls", Layers.calls t.layers "mctree.sph");
    ("mctree.sph.self_s", self "mctree.sph");
    ("net.dijkstra.calls", Layers.calls t.layers "net.dijkstra");
    ("net.dijkstra.self_s", self "net.dijkstra");
    ("net.dijkstra.minor_words", Layers.minor t.layers "net.dijkstra");
    ("net.dijkstra_per_event", ratio dijkstra (float_of_int (events rs)));
    ("trace.wall_s", added "trace");
    ("registry.wall_s", added "registry");
    ("series.wall_s", added "series");
    ("trace.entries", float_of_int t.passes.p_entries);
    ("trace.dropped", float_of_int t.passes.p_dropped);
    (* The instruments' share of an all-on run of the probe cells, taking
       their costs as additive. *)
    ("telemetry.share", ratio telemetry (pass "off" +. telemetry));
    ("ledger.trace_overhead_frac", t.overhead);
  ]

(* Rows only some workloads have, with their units: printed in the
   table, not part of the per-layer list every workload reports. *)
let workload_rows t ~size_of_cell =
  let opt name unit_ v = if v > 0.0 then [ (name, unit_, v) ] else [] in
  opt "baselines.brute_force.run_s" "s" (Layers.inclusive t.layers "baselines.brute_force.run")
  @ opt "baselines.mospf.run_s" "s" (Layers.inclusive t.layers "baselines.mospf.run")
  @ opt "mctree.kmb.calls" "count" (Layers.calls t.layers "mctree.kmb")
  @ opt "mctree.kmb.self_s" "s" (Layers.self t.layers "mctree.kmb")
  @ opt "net.mst.self_s" "s" (Layers.self t.layers "net.mst")
  @ List.filter_map
      (fun (name, f) ->
        Option.map
          (fun g -> (name, "exponent", g))
          (Layers.growth (Layers.scale t.layers ~size_of_cell f)))
      [
        ("scale.setup_exp", fun (c : Layers.cell_cost) -> c.c_setup);
        ("scale.dijkstra_exp", fun (c : Layers.cell_cost) -> c.c_dijkstra);
        ("scale.residual_exp", fun (c : Layers.cell_cost) -> c.c_residual);
      ]
