(* Cell drivers.  A cell is one (protocol, size, seed) simulation, from
   graph generation to a checked result line, run to quiescence through
   the library's public entry points.  The bursty, Poisson, brute-force
   and MOSPF drivers repeat [Experiments.Harness] step for step (same
   seeds, same calls) so that their result lines can be checked against
   it; the ledger only adds [Span.time] around each step. *)

type proto = Dgmc_burst | Dgmc_poisson | Dgmc_churn | Brute_force | Mospf

let proto_name = function
  | Dgmc_burst -> "dgmc-burst"
  | Dgmc_poisson -> "dgmc-poisson"
  | Dgmc_churn -> "dgmc-churn"
  | Brute_force -> "brute-force"
  | Mospf -> "mospf"

let is_dgmc = function
  | Dgmc_burst | Dgmc_poisson | Dgmc_churn -> true
  | Brute_force | Mospf -> false

type spec = { proto : proto; n : int; seed : int }

let key s = Printf.sprintf "%s n=%d seed=%d" (proto_name s.proto) s.n s.seed

type instruments = { trace : bool; registry : bool; series : bool }

let no_instruments = { trace = false; registry = false; series = false }

let all_instruments = { trace = true; registry = true; series = true }

type result = {
  spec : spec;
  line : string;  (** The checked output: {!key} and the per-event ratios. *)
  failure : string option;
  events : int;  (** Input events of the measured schedule. *)
  setup_s : float;
  measured_s : float;  (** Schedule application plus run to quiescence. *)
  minor_words : float;  (** Allocated over the measured schedule. *)
  engine_events : int;  (** Engine events executed by the measured schedule. *)
  floods : int;
  messages : int;
  acks : int;
  retransmissions : int;
  computations : int;
  withdrawn : int;
  queue_peak : int;  (** Traced runs only; [0] otherwise. *)
  trace_entries : int;
  trace_dropped : int;
}

(* ------------------------------------------------------------------ *)
(* Regimes *)

let atm = Dgmc.Config.atm_lan

let lossy_config = { atm with Dgmc.Config.flood_mode = Lsr.Flooding.Reliable }

let lossy_faults =
  match Faults.Plan.spec_of_string "drop=0.1,dup=0.05,reorder=0.1,jitter=0.3" with
  | Ok s -> s
  | Error e -> invalid_arg e

let config_of = function
  | Dgmc_burst | Brute_force | Mospf -> atm
  | Dgmc_poisson -> Dgmc.Config.wan
  | Dgmc_churn -> lossy_config

let burst_members = 10

let mospf_sources = 3

let poisson_events = 40

let poisson_gap_rounds = 50.0

let churn_mcs = 4

let line_of spec (r : Experiments.Harness.run) =
  Printf.sprintf "%s events=%d comp=%.17g flood=%.17g msg=%.17g rounds=%s converged=%b"
    (key spec) r.events r.computations_per_event r.floodings_per_event
    r.messages_per_event
    (match r.convergence_rounds with
    | Some x -> Printf.sprintf "%.17g" x
    | None -> "none")
    r.converged

(* What [Experiments.Harness] returns for the same cell — the reference
   the ledger's drivers must reproduce. *)
let harness_line spec =
  let seed = spec.seed and n = spec.n and config = config_of spec.proto in
  let members = burst_members in
  Option.map (line_of spec)
  @@
  match spec.proto with
  | Dgmc_burst ->
    Some (Experiments.Harness.bursty_run ~seed ~n ~config ~members ())
  | Dgmc_poisson ->
    Some
      (Experiments.Harness.poisson_run ~seed ~n ~config ~events:poisson_events
         ~gap_rounds:poisson_gap_rounds ())
  | Brute_force ->
    Some (Experiments.Harness.brute_force_bursty_run ~seed ~n ~config ~members)
  | Mospf ->
    Some
      (Experiments.Harness.mospf_bursty_run ~seed ~n ~config ~members
         ~sources:mospf_sources)
  | Dgmc_churn -> None

(* ------------------------------------------------------------------ *)
(* Shared pieces *)

let per_event count events =
  if events = 0 then 0.0 else float_of_int count /. float_of_int events

let dgmc_measure net mcs =
  let t = Dgmc.Protocol.totals net in
  {
    Experiments.Harness.n = Dgmc.Protocol.n_switches net;
    events = t.events;
    computations_per_event = per_event t.computations t.events;
    floodings_per_event = per_event t.mc_floodings t.events;
    messages_per_event = per_event t.messages t.events;
    convergence_rounds = Dgmc.Protocol.convergence_rounds net;
    converged = List.for_all (Dgmc.Protocol.converged net) mcs;
  }

let burst_schedule ~config ~graph ~seed ~n mc =
  let rng = Sim.Rng.create (seed lxor 0x5bd1e995) in
  let window =
    Float.max config.Dgmc.Config.tc
      (Lsr.Flooding.flood_diameter ~graph ~t_hop:config.Dgmc.Config.t_hop)
  in
  Workload.Bursty.joins rng ~n ~mc ~members:burst_members ~window ()

let sym k = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric k

type telemetry = {
  tr : Sim.Trace.t option;
  reg : Metrics.Registry.t option;
  ser : Metrics.Series.t option;
}

let telemetry (i : instruments) =
  {
    tr = (if i.trace then Some (Sim.Trace.create ()) else None);
    reg = (if i.registry then Some (Metrics.Registry.create ()) else None);
    ser =
      (if i.series then Some (Metrics.Series.create ~bucket:1e-3 ~cap:512 ())
       else None);
  }

(* The engine's deepest calendar during the measured schedule.  The
   ledger samples it with an engine probe in traced runs; when the
   flight recorder owns the probe, its [engine.queue_depth] series
   already holds the maxima.  [Sim.Engine.pending] walks the whole
   calendar, so the probe samples it once every max(64, last depth)
   events, which keeps its cost per event logarithmic. *)
let watch_queue rec_ tel eng =
  let peak = ref 0 and countdown = ref 0 in
  if Span.traced rec_ && Option.is_none tel.ser then
    Sim.Engine.set_probe eng (fun () ->
        decr countdown;
        if !countdown <= 0 then begin
          let d = Sim.Engine.pending eng in
          if d > !peak then peak := d;
          countdown := Int.max 64 d
        end);
  fun () ->
    match tel.ser with
    | Some s ->
      List.fold_left
        (fun acc (l : Metrics.Series.line) ->
          if String.equal l.l_name "engine.queue_depth" then
            List.fold_left
              (fun acc (p : Metrics.Series.point) ->
                Int.max acc (int_of_float p.p_max))
              acc l.l_points
          else acc)
        0 (Metrics.Series.lines s)
    | None ->
      if Span.traced rec_ then Sim.Engine.clear_probe eng;
      !peak

type measured = {
  m_events : int;
  m_seconds : float;
  m_words : float;
  m_engine : int;
}

(* Time the measured schedule: [generate ()] builds the input events
   (a workload-generator cost, outside the measurement), [inject]
   hands them to the protocol and [run ()] drives the engine to
   quiescence. *)
let measure_schedule rec_ ~cell eng ~run_span ~generate ~inject ~run =
  let time name f = Span.time rec_ ~cell name f in
  let events, _ = time "workload.generate" generate in
  let e0 = Sim.Engine.events_executed eng in
  let w0 = Gc.minor_words () in
  let (), t_sched = time "workload.schedule" (fun () -> inject events) in
  let (), t_run = time run_span run in
  let w1 = Gc.minor_words () in
  {
    m_events = Workload.Events.count events;
    m_seconds = t_sched +. t_run;
    m_words = w1 -. w0;
    m_engine = Sim.Engine.events_executed eng - e0;
  }

let result spec ~run ~setup_s ~m ~floods ~messages ~acks ~retransmissions
    ~computations ~withdrawn ~queue_peak ~tel =
  {
    spec;
    line = line_of spec run;
    failure = (if run.Experiments.Harness.converged then None else Some "not converged");
    events = m.m_events;
    setup_s;
    measured_s = m.m_seconds;
    minor_words = m.m_words;
    engine_events = m.m_engine;
    floods;
    messages;
    acks;
    retransmissions;
    computations;
    withdrawn;
    queue_peak;
    trace_entries = Option.fold ~none:0 ~some:Sim.Trace.count tel.tr;
    trace_dropped = Option.fold ~none:0 ~some:Sim.Trace.dropped tel.tr;
  }

(* ------------------------------------------------------------------ *)
(* Drivers *)

let dgmc rec_ ~cell ~inst spec =
  let time name f = Span.time rec_ ~cell name f in
  let seed = spec.seed and n = spec.n in
  let config = config_of spec.proto in
  let graph, t_gen =
    time "net.generate" (fun () -> Experiments.Harness.graph_for ~seed ~n)
  in
  let tel = telemetry inst in
  let faults =
    match spec.proto with
    | Dgmc_churn -> Some (Faults.Plan.create ~spec:lossy_faults ~seed ())
    | Dgmc_burst | Dgmc_poisson | Brute_force | Mospf -> None
  in
  let net, t_create =
    time "dgmc.create" (fun () ->
        Dgmc.Protocol.create ~graph ~config ?faults ?trace:tel.tr
          ?metrics:tel.reg ?series:tel.ser ())
  in
  let eng = Dgmc.Protocol.engine net in
  let round = Dgmc.Config.round_length config ~graph in
  let setup_s = ref (t_gen +. t_create) in
  let mcs, schedule =
    match spec.proto with
    | Dgmc_burst ->
      let mc = sym 1 in
      ([ mc ], fun () -> burst_schedule ~config ~graph ~seed ~n mc)
    | Dgmc_poisson ->
      let mc = sym 1 in
      let rng = Sim.Rng.create (seed lxor 0x2545f491) in
      (* Establish a 5-member MC first; that setup is not measured. *)
      let initial, t_est =
        time "dgmc.establish" (fun () ->
            let initial = Sim.Rng.sample rng 5 (List.init n (fun i -> i)) in
            List.iter
              (fun switch -> Dgmc.Protocol.join net ~switch mc Dgmc.Member.Both)
              initial;
            Dgmc.Protocol.run net;
            Dgmc.Protocol.reset_counters net;
            initial)
      in
      setup_s := !setup_s +. t_est;
      ( [ mc ],
        fun () ->
          let start = Sim.Engine.now eng +. round in
          Workload.Poisson.membership rng ~n ~mc ~events:poisson_events
            ~mean_gap:(poisson_gap_rounds *. round) ~initial ~start ()
          |> List.filter (fun (e : Workload.Events.t) -> e.time > start) )
    | Dgmc_churn ->
      let mcs = List.init churn_mcs (fun i -> sym (i + 1)) in
      ( mcs,
        fun () ->
          List.concat_map
            (fun mc ->
              let k = mc.Dgmc.Mc_id.id in
              let rng = Sim.Rng.derive ~master:seed ~index:k in
              Workload.Churn.generate rng ~graph
                {
                  Workload.Churn.mc;
                  members = 3;
                  moves = 10;
                  period = round;
                  start = 0.0;
                  waves = (if k = 1 then 6 else 0);
                  wave_links = 2;
                  wave_period = 4.0 *. round;
                })
            mcs
          |> Workload.Events.sort )
    | Brute_force | Mospf -> assert false
  in
  let queue_peak = watch_queue rec_ tel eng in
  let m =
    measure_schedule rec_ ~cell eng ~run_span:"dgmc.run" ~generate:schedule
      ~inject:(Workload.Events.apply_dgmc net)
      ~run:(fun () -> Dgmc.Protocol.run net)
  in
  let queue_peak = queue_peak () in
  let run, _ = time "dgmc.check" (fun () -> dgmc_measure net mcs) in
  let t = Dgmc.Protocol.totals net in
  result spec ~run ~setup_s:!setup_s ~m
    ~floods:(t.mc_floodings + t.link_floodings)
    ~messages:t.messages ~acks:t.acks ~retransmissions:t.retransmissions
    ~computations:t.computations ~withdrawn:t.computations_withdrawn
    ~queue_peak ~tel

let joins_of events =
  List.filter_map
    (fun (e : Workload.Events.t) ->
      match e.action with
      | Workload.Events.Join { switch; mc; role } -> Some (e.time, switch, mc, role)
      | Workload.Events.Leave _ | Workload.Events.Link_down _
      | Workload.Events.Link_up _ ->
        None)
    events

let brute_force rec_ ~cell spec =
  let time name f = Span.time rec_ ~cell name f in
  let seed = spec.seed and n = spec.n and config = atm in
  let graph, t_gen =
    time "net.generate" (fun () -> Experiments.Harness.graph_for ~seed ~n)
  in
  let bf, t_create =
    time "baselines.brute_force.create" (fun () ->
        Baselines.Brute_force.create ~graph ~config ())
  in
  let mc = sym 1 in
  let eng = Baselines.Brute_force.engine bf in
  let tel = telemetry no_instruments in
  let queue_peak = watch_queue rec_ tel eng in
  let first = ref infinity in
  let m =
    measure_schedule rec_ ~cell eng ~run_span:"baselines.brute_force.run"
      ~generate:(fun () -> burst_schedule ~config ~graph ~seed ~n mc)
      ~inject:(fun events ->
        List.iter
          (fun (at, switch, mc, role) ->
            Baselines.Brute_force.schedule_join bf ~at ~switch mc role)
          (joins_of events);
        first :=
          List.fold_left
            (fun a (e : Workload.Events.t) -> Float.min a e.time)
            infinity events)
      ~run:(fun () -> Baselines.Brute_force.run bf)
  in
  let queue_peak = queue_peak () in
  let run, _ =
    time "baselines.brute_force.check" (fun () ->
        let t = Baselines.Brute_force.totals bf in
        let round = Dgmc.Config.round_length config ~graph in
        {
          Experiments.Harness.n;
          events = t.events;
          computations_per_event = per_event t.computations t.events;
          floodings_per_event = per_event t.floodings t.events;
          messages_per_event = per_event t.messages t.events;
          convergence_rounds = Some ((Sim.Engine.now eng -. !first) /. round);
          converged = Baselines.Brute_force.converged bf mc;
        })
  in
  let t = Baselines.Brute_force.totals bf in
  result spec ~run ~setup_s:(t_gen +. t_create) ~m ~floods:t.floodings
    ~messages:t.messages ~acks:0 ~retransmissions:0 ~computations:t.computations
    ~withdrawn:0 ~queue_peak ~tel

let mospf rec_ ~cell spec =
  let time name f = Span.time rec_ ~cell name f in
  let seed = spec.seed and n = spec.n and config = atm in
  let graph, t_gen =
    time "net.generate" (fun () -> Experiments.Harness.graph_for ~seed ~n)
  in
  let mo, t_create =
    time "baselines.mospf.create" (fun () -> Baselines.Mospf.create ~graph ~config ())
  in
  let group = 1 in
  let eng = Baselines.Mospf.engine mo in
  let tel = telemetry no_instruments in
  let queue_peak = watch_queue rec_ tel eng in
  let senders = ref [] in
  let m =
    measure_schedule rec_ ~cell eng ~run_span:"baselines.mospf.run"
      ~generate:(fun () -> burst_schedule ~config ~graph ~seed ~n (sym 1))
      ~inject:(fun events ->
        let joins = joins_of events in
        List.iter
          (fun (at, switch, _, _) -> Baselines.Mospf.schedule_join mo ~at ~switch ~group)
          joins;
        senders :=
          List.filteri
            (fun i _ -> i < mospf_sources)
            (List.sort_uniq Int.compare (List.map (fun (_, s, _, _) -> s) joins)))
      ~run:(fun () ->
        Baselines.Mospf.run mo;
        (* Membership has settled; one datagram per source triggers the
           data-driven computations. *)
        List.iter (fun src -> Baselines.Mospf.send_packet mo ~src ~group) !senders;
        Baselines.Mospf.run mo)
  in
  let queue_peak = queue_peak () in
  let t = Baselines.Mospf.totals mo in
  let run, _ =
    time "baselines.mospf.check" (fun () ->
        {
          Experiments.Harness.n;
          events = t.events;
          computations_per_event = per_event t.computations t.events;
          floodings_per_event = per_event t.floodings t.events;
          messages_per_event = per_event t.messages t.events;
          convergence_rounds = None;
          converged = true;
        })
  in
  result spec ~run ~setup_s:(t_gen +. t_create) ~m ~floods:t.floodings
    ~messages:t.messages ~acks:0 ~retransmissions:0 ~computations:t.computations
    ~withdrawn:0 ~queue_peak ~tel

let failed spec msg =
  {
    spec;
    line = Printf.sprintf "%s error=%s" (key spec) msg;
    failure = Some msg;
    events = 0;
    setup_s = 0.0;
    measured_s = 0.0;
    minor_words = 0.0;
    engine_events = 0;
    floods = 0;
    messages = 0;
    acks = 0;
    retransmissions = 0;
    computations = 0;
    withdrawn = 0;
    queue_peak = 0;
    trace_entries = 0;
    trace_dropped = 0;
  }

(* One cell inside its own "cell" span.  An exception fails the cell,
   not the run. *)
let run rec_ ~cell ~inst spec =
  match
    Span.time rec_ ~cell "cell" (fun () ->
        match spec.proto with
        | Dgmc_burst | Dgmc_poisson | Dgmc_churn -> dgmc rec_ ~cell ~inst spec
        | Brute_force -> brute_force rec_ ~cell spec
        | Mospf -> mospf rec_ ~cell spec)
  with
  | r, _ -> r
  | exception e -> failed spec (Printexc.to_string e)
