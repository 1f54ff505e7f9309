type totals = {
  events : int;
  computations : int;
  computations_withdrawn : int;
  mc_floodings : int;
  link_floodings : int;
  proposals_flooded : int;
  proposals_accepted : int;
  messages : int;
  acks : int;
  retransmissions : int;
}

(* A scripted input, run at its time through [t.inputs]. *)
type input =
  | Join of int * Mc_id.t * Member.role
  | Leave of int * Mc_id.t
  | Link of int * int * bool  (** The link's endpoints, up or down. *)

type t = {
  engine : Sim.Engine.t;
  graph : Net.Graph.t;
  config : Config.t;
  faults : Faults.Plan.t option;
  switches : Switch.t array;
  flooding : Switch.payload Lsr.Flooding.t;
  flood : Switch.payload Lsr.Lsa.t -> unit;  (** The flooding transport. *)
  health : Link_health.t option;  (** The opt-in link-health layer. *)
  seqs : Lsr.Lsa.Seq.counter array;
  clock : Lsr.Lsdb.clock;  (** Ground-truth link versions. *)
  truth : Member.t Mc_id.Tbl.t;  (** Ground-truth membership per MC. *)
  trace : Sim.Trace.t;
  events : Metrics.Registry.counter;
  mc_floodings : Metrics.Registry.counter;
  link_floodings : Metrics.Registry.counter;
  resync_messages : Metrics.Registry.counter;
  mutable baseline : totals;
      (** The counts at the last {!reset_counters}: the handles never
          reset, so {!totals} reads past this. *)
  mutable first_event : float option;
  mutable last_change : float;
      (** The last change signal's time, [neg_infinity] before the
          first: kept bare so that a signal allocates nothing. *)
  mutable observers : (int -> unit) list;
  timers : (int * Switch.timer) Sim.Jobs.t;
      (** The timers switches have started, each with its switch. *)
  resync : Sim.Engine.callback;
      (** A recovered link's exchange, posted with [lo * n + hi]. *)
  inputs : input Sim.Jobs.t;
}

(* The [Lsa_originated] event of an LSA: its MC, event and stamp for an
   MC LSA, only the kind of message otherwise. *)
let originated ~switch ~seq (payload : Switch.payload) =
  let none = { Sim.Trace.size = 0; nonzero = [||] } in
  let mc, ev, proposal, stamp =
    match payload with
    | Mc m ->
      ( Mc_id.to_string m.Mc_lsa.mc,
        Mc_lsa.event_to_string m.event,
        m.proposal <> None,
        Timestamp.to_sparse m.stamp )
    | Link ev -> ("", (if ev.up then "link-up" else "link-down"), false, none)
    | Resync (Resync.Summary _) -> ("", "resync-summary", false, none)
    | Resync (Resync.Delta _) -> ("", "resync-delta", false, none)
  in
  Sim.Trace.Lsa_originated { switch; mc; seq; ev; proposal; stamp }

(* Every LSA a switch sends starts here: stamp it with the origin's next
   sequence number and hand it to [send].  A traced run first records
   the origination (its payload built only then) and sends in that
   event's causal context.  Floods go through one closure built at
   creation, so an untraced flood allocates nothing beyond the switch's
   output and the LSA; a resync unicast, sent only by crash recovery,
   builds its [send] per message. *)
let originate t ~from payload send =
  let seq = Lsr.Lsa.Seq.next t.seqs.(from) in
  let lsa = Lsr.Lsa.make ~origin:from ~seq payload in
  if Sim.Trace.enabled t.trace then
    let oid =
      Sim.Trace.emit t.trace ~time:(Sim.Engine.now t.engine)
        (originated ~switch:from ~seq payload)
    in
    let saved = Sim.Trace.set_context t.trace oid in
    match send lsa with
    | () -> Sim.Trace.restore_context t.trace saved
    | exception e ->
      Sim.Trace.restore_context t.trace saved;
      raise e
  else send lsa

(* A plain loop, not [List.iter] over a closure capturing [id], so a
   change signal allocates nothing. *)
let rec notify id = function
  | [] -> ()
  | f :: rest ->
    f id;
    notify id rest

(* Carry out one output of switch [from]: count and originate a flood,
   unicast a resynchronisation message, note a change for the
   convergence clock and the observers, or post a timer on the run's
   engine. *)
let output t ~from : Switch.output -> unit = function
  | Flood payload ->
    (match payload with
    | Mc _ -> Metrics.Registry.bump t.mc_floodings
    | Link _ -> Metrics.Registry.bump t.link_floodings
    | Resync _ -> invalid_arg "Protocol: a resync message is never flooded");
    originate t ~from payload t.flood
  | Send { peer; msg } ->
    Metrics.Registry.bump t.resync_messages;
    originate t ~from (Switch.Resync msg)
      (Lsr.Flooding.send t.flooding ~src:from ~dst:peer)
  | Changed ->
    t.last_change <- Sim.Engine.now t.engine;
    notify from t.observers
  | Start { timer; delay } -> Sim.Jobs.post t.timers ~delay (from, timer)

let zero =
  {
    events = 0;
    computations = 0;
    computations_withdrawn = 0;
    mc_floodings = 0;
    link_floodings = 0;
    proposals_flooded = 0;
    proposals_accepted = 0;
    messages = 0;
    acks = 0;
    retransmissions = 0;
  }

(* The run's engine: a fresh one over [trace] and [metrics], or the
   one passed in, which brings its own sinks. *)
let run_engine ?engine ?trace ?metrics series =
  match (engine, trace, metrics) with
  | Some _, None, None when Metrics.Series.enabled series ->
    invalid_arg "Protocol.create: ~engine excludes a live ~series"
  | Some engine, None, None -> engine
  | Some _, _, _ ->
    invalid_arg "Protocol.create: ~engine excludes ~trace and ~metrics"
  | None, _, _ -> Sim.Engine.create ?trace ?metrics ()

(* The flooding's fault hook.  A plan with no window and no trace never
   reads [~now], so the hook leaves the clock unread and unboxed. *)
let fault_hook engine plan ~src ~dst ~base_delay delays =
  let now =
    if Faults.Plan.reads_clock plan then Sim.Engine.now engine else 0.0
  in
  Faults.Plan.transmit plan ~src ~dst ~now ~base_delay delays

(* ------------------------------------------------------------------ *)
(* Event injection *)

let note_event t =
  Metrics.Registry.bump t.events;
  if t.first_event = None then t.first_event <- Some (Sim.Engine.now t.engine)

let check_switch t i =
  if i < 0 || i >= Array.length t.switches then
    invalid_arg (Printf.sprintf "Protocol: switch %d out of range" i)

let truth_members t mc =
  Option.value ~default:Member.empty (Mc_id.Tbl.find_opt t.truth mc)

let join t ~switch:i mc role =
  check_switch t i;
  note_event t;
  Mc_id.Tbl.replace t.truth mc (Member.join (truth_members t mc) i role);
  Switch.host_join t.switches.(i) mc role

let leave t ~switch:i mc =
  check_switch t i;
  note_event t;
  Mc_id.Tbl.replace t.truth mc (Member.leave (truth_members t mc) i);
  Switch.host_leave t.switches.(i) mc

let link_change t u v ~up =
  if not (Net.Graph.has_edge t.graph u v) then
    invalid_arg (Printf.sprintf "Protocol: no link (%d, %d)" u v);
  note_event t;
  Net.Graph.set_link t.graph u v ~up;
  match t.health with
  | Some h ->
    (* Health layer on: the change is ground truth only.  No switch is
       told, nothing is flooded — the hello agents must discover it. *)
    Link_health.link_change h u v ~up
  | None ->
  Switch.detect_link t.switches (Lsr.Lsdb.stamp t.clock u v ~up);
  (* A recovered adjacency triggers an MC database exchange between its
     endpoints (one hop of delay), so the two sides of a healed
     partition reconcile — see Switch.resync. *)
  if up then
    let lo, hi = if u < v then (u, v) else (v, u) in
    Sim.Engine.post t.engine ~delay:t.config.Config.t_hop t.resync
      ((lo * Array.length t.switches) + hi)

let apply t = function
  | Join (i, mc, role) -> join t ~switch:i mc role
  | Leave (i, mc) -> leave t ~switch:i mc
  | Link (u, v, up) -> link_change t u v ~up

let create ~graph ~config ?faults ?engine ?trace ?metrics
    ?(series = Metrics.Series.disabled) () =
  let n = Net.Graph.n_nodes graph in
  if n < 2 then invalid_arg "Protocol.create: need at least 2 switches";
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Protocol.create: " ^ msg));
  (* Hellos sense links, not switches: a crash or partition window would
     silence them over links that are up, which the verdicts, judged
     against link ground truth alone, would count as false positives. *)
  (match (config.Config.health, faults) with
  | Some _, Some plan when Faults.Plan.has_windows plan ->
    invalid_arg
      "Protocol.create: the link-health layer excludes crash and partition \
       windows"
  | _ -> ());
  let engine = run_engine ?engine ?trace ?metrics series in
  let metrics = Sim.Engine.metrics engine in
  (* One image store for the whole run, apart from [graph], which link
     events mutate as ground truth. *)
  let boot = Lsr.Lsdb.boot graph in
  let switches =
    Array.init n (fun id -> Switch.create ~id ~n ~config ~engine ~boot)
  in
  let deliver ~switch (lsa : Switch.payload Lsr.Lsa.t) =
    Switch.deliver switches.(switch) lsa.payload
  in
  let flooding =
    Lsr.Flooding.create ~engine ~graph ~t_hop:config.Config.t_hop
      ~mode:config.Config.flood_mode ~reliability:config.Config.reliability
      ?transmit:(Option.map (fault_hook engine) faults)
      ~deliver ()
  in
  (* Flight-recorder probe: the calendar depth after every executed
     event.  Installed only when the series is live — the disabled engine
     path stays a single [None] branch — and it only observes, so figure
     output stays byte-identical with recording on.  Its key is resolved
     once, here; the ring is allocated at the first sample. *)
  if Metrics.Series.enabled series then begin
    let depth = Metrics.Series.handle series "engine.queue_depth" in
    Sim.Engine.set_probe engine (fun () ->
        Metrics.Series.record depth ~time:(Sim.Engine.now engine)
          (float_of_int (Sim.Engine.pending engine)))
  end;
  (* Crash recovery: at each crash window's close the switch's forwarding
     plane returns, but every LSA flooded meanwhile is gone for good —
     the plan dropped deliveries to it and floods from it.  Post the
     resynchronisation exchange at that instant, traced or not (protocol
     behavior must never depend on tracing); a traced plan then marks
     its windows. *)
  Option.iter
    (fun plan ->
      let recover =
        Sim.Engine.callback (fun sw -> Switch.begin_resync switches.(sw))
      in
      List.iter
        (fun (sw, (_, until)) ->
          Sim.Engine.post_at engine ~time:until recover sw)
        (Faults.Plan.crash_windows plan);
      Faults.Plan.instrument plan engine)
    faults;
  let clock = Lsr.Lsdb.clock () in
  let health =
    Option.map
      (fun hc ->
        Link_health.create ~engine ~graph ~config:hc
          ~t_hop:config.Config.t_hop ~flooding ~clock switches)
      config.Config.health
  in
  (* The scripted inputs run against the whole record: a lazy value,
     forced before any can run. *)
  let rec net =
    lazy
      {
        engine;
        graph;
        config;
        faults;
        switches;
        flooding;
        flood = (fun lsa -> Lsr.Flooding.flood flooding lsa);
        health;
        seqs = Array.init n (fun _ -> Lsr.Lsa.Seq.create ());
        clock;
        truth = Mc_id.Tbl.create 8;
        trace = Sim.Engine.trace engine;
        events = Metrics.Registry.counter metrics "protocol.events";
        mc_floodings = Metrics.Registry.counter metrics "protocol.mc_floodings";
        link_floodings =
          Metrics.Registry.counter metrics "protocol.link_floodings";
        resync_messages =
          Metrics.Registry.counter metrics "protocol.resync_messages";
        baseline = zero;
        first_event = None;
        last_change = neg_infinity;
        observers = [];
        timers =
          Sim.Jobs.create engine (fun (i, timer) ->
              Switch.fire switches.(i) timer);
        resync =
          Sim.Engine.callback (fun key ->
              let lo = switches.(key / n) and hi = switches.(key mod n) in
              Switch.resync lo ~peer:hi;
              Switch.resync hi ~peer:lo);
        inputs =
          Sim.Jobs.create engine (fun input -> apply (Lazy.force net) input);
      }
  in
  let net = Lazy.force net in
  Array.iteri (fun id sw -> Switch.connect sw (output net ~from:id)) switches;
  net

let engine t = t.engine

let add_observer t f = t.observers <- t.observers @ [ f ]

let graph t = t.graph

let faults t = t.faults

let n_switches t = Array.length t.switches

let switch t i = t.switches.(i)

let schedule_join t ~at ~switch:i mc role =
  Sim.Jobs.post_at t.inputs ~time:at (Join (i, mc, role))

let schedule_leave t ~at ~switch:i mc =
  Sim.Jobs.post_at t.inputs ~time:at (Leave (i, mc))

let schedule_link_down t ~at u v =
  Sim.Jobs.post_at t.inputs ~time:at (Link (u, v, false))

let schedule_link_up t ~at u v =
  Sim.Jobs.post_at t.inputs ~time:at (Link (u, v, true))

(* ------------------------------------------------------------------ *)
(* Running and measurements *)

let run ?max_events t = Sim.Engine.run ?max_events t.engine

(* The counts since creation past [since]. *)
let counted t ~since:(b : totals) : totals =
  let stats = Array.map Switch.stats t.switches in
  let sum f = Array.fold_left (fun acc (s : Switch.stats) -> acc + f s) 0 stats in
  let count = Metrics.Registry.count in
  {
    events = count t.events - b.events;
    computations = sum (fun s -> s.computations) - b.computations;
    computations_withdrawn =
      sum (fun s -> s.computations_withdrawn) - b.computations_withdrawn;
    mc_floodings = count t.mc_floodings - b.mc_floodings;
    link_floodings = count t.link_floodings - b.link_floodings;
    proposals_flooded = sum (fun s -> s.proposals_flooded) - b.proposals_flooded;
    proposals_accepted =
      sum (fun s -> s.proposals_accepted) - b.proposals_accepted;
    messages = Lsr.Flooding.messages_sent t.flooding - b.messages;
    acks = Lsr.Flooding.acks_sent t.flooding - b.acks;
    retransmissions = Lsr.Flooding.retransmissions t.flooding - b.retransmissions;
  }

let totals t = counted t ~since:t.baseline

let reset_counters t =
  t.baseline <- counted t ~since:zero;
  t.first_event <- None;
  t.last_change <- neg_infinity

let last_change_time t =
  if t.last_change = neg_infinity then None else Some t.last_change

let convergence_rounds t =
  match (t.first_event, last_change_time t) with
  | Some first, Some last ->
    let round = Config.round_length t.config ~graph:t.graph in
    if round <= 0.0 then None else Some ((last -. first) /. round)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Agreement *)

let violations t mc =
  Terminal.agreement mc t.switches
  @ Terminal.against_truth ~graph:t.graph ~members:(truth_members t mc) mc
      t.switches

let terminal_violations t =
  let truth =
    Mc_id.Tbl.fold (fun mc members acc -> (mc, members) :: acc) t.truth []
  in
  Terminal.check ~graph:t.graph ~truth t.switches
  @ Terminal.suppress_install
      ~suppressed:
        (match t.health with
        | None -> []
        | Some h -> Link_health.suppressed_links h)
      t.switches

let divergence t mc = List.map Terminal.to_string (violations t mc)

let converged t mc = violations t mc = []

let agreed_topology t mc =
  if converged t mc then
    Array.find_map (fun sw -> Switch.topology sw mc) t.switches
  else None

let health_summary t = Option.map Link_health.summary t.health
