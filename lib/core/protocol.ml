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

(* Link-health layer state (opt-in, [Config.health]).  When present,
   scripted link changes touch ground truth only — the hello agents must
   discover them, and the declaring switch originates the link LSAs
   itself. *)
type health_state = {
  hc : Health.Config.t;
  mutable agents : Health.Hello.t array;
  truth_changed : float Lsr.Lsdb.Link_tbl.t;
      (* Last ground-truth change instant per link — detection-latency
         base. *)
  detections : Metrics.Registry.counter array;
      (* Per switch: down verdicts matching ground truth. *)
  recoveries : Metrics.Registry.counter array;  (* up verdicts *)
  false_positives : Metrics.Registry.counter array;
  hellos_sent : Metrics.Registry.counter array;
  hellos_received : Metrics.Registry.counter array;
  suppressions : Metrics.Registry.counter array;
  unsuppressions : Metrics.Registry.counter array;
  mutable latencies : float list;  (* down-detection latencies *)
}

type health_summary = {
  h_detections : int;
  h_recoveries : int;
  h_false_positives : int;
  h_latencies : float list;  (** Sorted ascending. *)
  h_bound : float;
  h_suppressed : int;
  h_hellos : int;
  h_flaps : int;
}

(* The timers switches have started and that have not fired yet, one
   slot each: the starting switch and its timer.  A slot is taken when
   its timer starts and given back when it fires; the engine runs the
   table's one callback with the slot's id. *)
type timers = {
  mutable owner : int array;
  mutable timer : Switch.timer array;
  ids : Sim.Slots.t;
}

type t = {
  engine : Sim.Engine.t;
  graph : Net.Graph.t;
  config : Config.t;
  faults : Faults.Plan.t option;
  switches : Switch.t array;
  flooding : Switch.payload Lsr.Flooding.t;
  flood : Switch.payload Lsr.Lsa.t -> unit;  (** The flooding transport. *)
  mutable health : health_state option;
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
  timers : timers;
  mutable due : Sim.Engine.callback;  (** {!fire}, posted with a slot. *)
}

(* The [Lsa_originated] event of an LSA: its MC, event and stamp for an
   MC LSA, only the kind of message otherwise. *)
let originated ~switch ~seq (payload : Switch.payload) =
  let mc, ev, proposal, stamp =
    match payload with
    | Mc m ->
      ( Mc_id.to_string m.Mc_lsa.mc,
        Mc_lsa.event_to_string m.event,
        m.proposal <> None,
        Timestamp.to_array m.stamp )
    | Link ev -> ("", (if ev.up then "link-up" else "link-down"), false, [||])
    | Resync (Resync.Summary _) -> ("", "resync-summary", false, [||])
    | Resync (Resync.Delta _) -> ("", "resync-delta", false, [||])
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
    Sim.Trace.with_context t.trace oid (fun () -> send lsa)
  else send lsa

(* A plain loop, not [List.iter] over a closure capturing [id], so a
   change signal allocates nothing. *)
let rec notify id = function
  | [] -> ()
  | f :: rest ->
    f id;
    notify id rest

(* A slot holding [from]'s [timer]. *)
let take_slot ts ~from timer =
  let slot = Sim.Slots.take ts.ids in
  if slot = Array.length ts.owner then begin
    let larger = max 8 (2 * slot) in
    let extend a fill =
      let b = Array.make larger fill in
      Array.blit a 0 b 0 slot;
      b
    in
    ts.owner <- extend ts.owner 0;
    ts.timer <- extend ts.timer timer
  end;
  ts.owner.(slot) <- from;
  ts.timer.(slot) <- timer;
  slot

(* A started timer is due: give its slot back, then hand the timer to
   its switch. *)
let fire t slot =
  let ts = t.timers in
  let sw = t.switches.(ts.owner.(slot)) and timer = ts.timer.(slot) in
  Sim.Slots.give_back ts.ids slot;
  Switch.fire sw timer

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
  | Start { timer; delay } ->
    Sim.Engine.post t.engine ~delay t.due (take_slot t.timers ~from timer)

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
  | Some _, Some plan
    when Faults.Plan.crash_windows plan <> []
         || Faults.Plan.partition_windows plan <> [] ->
    invalid_arg
      "Protocol.create: the link-health layer excludes crash and partition \
       windows"
  | _ -> ());
  let engine =
    match (engine, trace, metrics) with
    | Some _, None, None when Metrics.Series.enabled series ->
      invalid_arg "Protocol.create: ~engine excludes a live ~series"
    | Some engine, None, None -> engine
    | Some _, _, _ ->
      invalid_arg "Protocol.create: ~engine excludes ~trace and ~metrics"
    | None, _, _ -> Sim.Engine.create ?trace ?metrics ()
  in
  let trace = Sim.Engine.trace engine
  and metrics = Sim.Engine.metrics engine in
  (* One boot image for the whole run, apart from [graph], which link
     events mutate as ground truth. *)
  let boot = Lsr.Lsdb.boot graph in
  let switches =
    Array.init n (fun id -> Switch.create ~id ~n ~config ~engine ~boot ())
  in
  let deliver ~switch (lsa : Switch.payload Lsr.Lsa.t) =
    Switch.deliver switches.(switch) lsa.payload
  in
  let transmit =
    match faults with
    | None -> None
    | Some plan ->
      Faults.Plan.instrument plan engine;
      Some
        (fun ~src ~dst ~base_delay delays ->
          Faults.Plan.transmit plan ~src ~dst ~now:(Sim.Engine.now engine)
            ~base_delay delays)
  in
  let flooding =
    Lsr.Flooding.create ~engine ~graph ~t_hop:config.Config.t_hop
      ~mode:config.Config.flood_mode ~reliability:config.Config.reliability
      ?transmit ~deliver ()
  in
  (* Flight-recorder probe: the calendar depth after every executed
     event.  Installed only when the series is live — the disabled engine
     path stays a single [None] branch — and it only observes, so figure
     output stays byte-identical with recording on. *)
  if Metrics.Series.enabled series then
    Sim.Engine.set_probe engine (fun () ->
        Metrics.Series.add series ~name:"engine.queue_depth"
          ~time:(Sim.Engine.now engine)
          (float_of_int (Sim.Engine.pending engine)));
  let net =
    {
      engine;
      graph;
      config;
      faults;
      switches;
      flooding;
      flood = (fun lsa -> Lsr.Flooding.flood flooding lsa);
      health = None;
      seqs = Array.init n (fun _ -> Lsr.Lsa.Seq.create ());
      clock = Lsr.Lsdb.clock ();
      truth = Mc_id.Tbl.create 8;
      trace;
      events = Metrics.Registry.counter metrics "protocol.events";
      mc_floodings = Metrics.Registry.counter metrics "protocol.mc_floodings";
      link_floodings = Metrics.Registry.counter metrics "protocol.link_floodings";
      resync_messages =
        Metrics.Registry.counter metrics "protocol.resync_messages";
      baseline = zero;
      first_event = None;
      last_change = neg_infinity;
      observers = [];
      timers = { owner = [||]; timer = [||]; ids = Sim.Slots.create () };
      due = Sim.Engine.callback ignore;
    }
  in
  net.due <- Sim.Engine.callback (fire net);
  Array.iteri (fun id sw -> Switch.connect sw (output net ~from:id)) switches;
  (* Crash recovery: at each crash window's close the switch's forwarding
     plane returns, but every LSA flooded meanwhile is gone for good —
     the plan dropped deliveries to it and floods from it.  Schedule the
     resynchronisation exchange at that instant, traced or not (protocol
     behavior must never depend on tracing). *)
  (match faults with
  | Some plan ->
    List.iter
      (fun (sw, (_, until)) ->
        Sim.Engine.schedule_at engine ~time:until (fun () ->
            Switch.begin_resync switches.(sw)))
      (Faults.Plan.crash_windows plan)
  | None -> ());
  (* Traced runs get the fault plan's scheduled windows marked on the
     timeline, so an analyzer can correlate what a switch missed with
     when it was down.  Scheduled only when tracing: untraced runs must
     keep a byte-identical event calendar. *)
  (match faults with
  | Some plan when Sim.Trace.enabled trace ->
    let mark ~time event =
      Sim.Engine.schedule_at engine ~time (fun () ->
          ignore (Sim.Trace.emit trace ~time event))
    in
    List.iter
      (fun (sw, (from_, until)) ->
        mark ~time:from_ (Sim.Trace.Crash { switch = sw });
        mark ~time:until (Sim.Trace.Recover { switch = sw }))
      (Faults.Plan.crash_windows plan);
    List.iter
      (fun (side, (from_, until)) ->
        let side_str = String.concat "," (List.map string_of_int side) in
        mark ~time:from_
          (Sim.Trace.Note
             {
               category = "partition";
               message = Printf.sprintf "partition {%s} begins" side_str;
             });
        mark ~time:until
          (Sim.Trace.Note
             {
               category = "partition";
               message = Printf.sprintf "partition {%s} heals" side_str;
             }))
      (Faults.Plan.partition_windows plan)
  | _ -> ());
  (* Link-health layer (opt-in).  Hello agents probe every configured
     adjacency; scripted link changes become ground truth the detectors
     must discover (see [link_change]). *)
  (match config.Config.health with
  | None -> ()
  | Some hc ->
    let all_edges = Net.Graph.all_edges graph in
    let adjacency i =
      List.filter_map
        (fun ((e : Net.Graph.edge), _up) ->
          if e.Net.Graph.u = i then Some e.Net.Graph.v
          else if e.Net.Graph.v = i then Some e.Net.Graph.u
          else None)
        all_edges
    in
    let per_switch = Metrics.Registry.per_switch metrics n in
    let h =
      {
        hc;
        agents = [||];
        truth_changed = Lsr.Lsdb.Link_tbl.create 16;
        detections = per_switch "health.detections";
        recoveries = per_switch "health.recoveries";
        false_positives = per_switch "health.false_positives";
        hellos_sent = per_switch "health.hellos_sent";
        hellos_received = per_switch "health.hellos_received";
        suppressions = per_switch "health.suppressions";
        unsuppressions = per_switch "health.unsuppressions";
        latencies = [];
      }
    in
    (* One hello on the flooding's wire, subject to the same fault plan
       as LSAs: drops, duplication and jitter are exactly the adversities
       the detectors must tolerate.  Arrival is gated on the link being
       up {e at delivery time}. *)
    let send i ~peer =
      Metrics.Registry.bump h.hellos_sent.(i);
      ignore
        (Lsr.Flooding.wire flooding ~src:i ~dst:peer (fun () ->
             if Net.Graph.link_is_up graph i peer then begin
               Metrics.Registry.bump h.hellos_received.(peer);
               Health.Hello.on_hello h.agents.(peer) ~from:i
             end))
    in
    (* A detector verdict: the switch's belief about an incident link
       changed.  Version the event, judge it against the link's ground
       truth, tell the switch, and originate the link LSA. *)
    let declare i ~peer ~up =
      let at = Sim.Engine.now engine in
      let lo, hi = if i < peer then (i, peer) else (peer, i) in
      let ev = Lsr.Lsdb.stamp net.clock i peer ~up in
      let last_change = Lsr.Lsdb.Link_tbl.find_opt h.truth_changed (lo, hi) in
      let latency, spurious =
        if up then
          (* Up verdicts rest on hellos that genuinely arrived; measure
             recovery latency from the last ground-truth change. *)
          ( (match last_change with Some since -> at -. since | None -> 0.0),
            false )
        else if Net.Graph.link_is_up graph i peer then (0.0, true)
        else (at -. Option.value ~default:0.0 last_change, false)
      in
      if up then begin
        Metrics.Registry.bump h.recoveries.(i);
        Metrics.Registry.observe metrics ~switch:i "health.recovery_latency"
          latency
      end
      else begin
        (* Retransmitting into a dead adjacency is pointless; cancel the
           pending state and fire the give-ups exactly once each. *)
        ignore (Lsr.Flooding.abandon_link flooding ~src:i ~dst:peer);
        if spurious then Metrics.Registry.bump h.false_positives.(i)
        else begin
          Metrics.Registry.bump h.detections.(i);
          h.latencies <- latency :: h.latencies;
          Metrics.Registry.observe metrics ~switch:i "health.detection_latency"
            latency
        end
      end;
      if Sim.Trace.enabled trace then
        ignore
          (Sim.Trace.emit trace ~time:at
             (Sim.Trace.Link_detected { switch = i; peer; up; latency; spurious }));
      Switch.detect switches.(i) ev;
      if up then
        Sim.Engine.schedule engine ~delay:config.Config.t_hop (fun () ->
            Switch.resync switches.(i) ~peer:switches.(peer))
    in
    h.agents <-
      Array.init n (fun i ->
          Health.Hello.create ~engine ~config:hc ~peers:(adjacency i)
            ~send:(fun ~peer -> send i ~peer)
            ~declare:(fun ~peer ~up -> declare i ~peer ~up)
            ~on_suppress:(fun ~peer ~resumed ->
              Metrics.Registry.bump
                (if resumed then h.unsuppressions.(i) else h.suppressions.(i));
              if Sim.Trace.enabled trace then
                ignore
                  (Sim.Trace.emit trace ~time:(Sim.Engine.now engine)
                     (Sim.Trace.Link_suppressed { switch = i; peer; resumed }))));
    net.health <- Some h;
    Array.iter Health.Hello.start h.agents);
  net

let engine t = t.engine

let add_observer t f = t.observers <- t.observers @ [ f ]

let graph t = t.graph

let faults t = t.faults

let n_switches t = Array.length t.switches

let switch t i = t.switches.(i)

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
  let lo, hi = if u < v then (u, v) else (v, u) in
  match t.health with
  | Some h ->
    (* Health layer on: the change is ground truth only.  No switch is
       told, nothing is flooded — the hello agents must discover it, and
       detection latency is measured from this instant. *)
    let now = Sim.Engine.now t.engine in
    Lsr.Lsdb.Link_tbl.replace h.truth_changed (lo, hi) now;
    if Sim.Trace.enabled t.trace then
      Sim.Trace.recordf t.trace ~time:now ~category:"truth"
        "link %d-%d ground truth now %s (detectors must discover it)" lo hi
        (if up then "up" else "down")
  | None ->
  Switch.detect_link t.switches (Lsr.Lsdb.stamp t.clock u v ~up);
  (* A recovered adjacency triggers an MC database exchange between its
     endpoints (one hop of delay), so the two sides of a healed
     partition reconcile — see Switch.resync. *)
  if up then
    Sim.Engine.schedule t.engine ~delay:t.config.Config.t_hop (fun () ->
        Switch.resync t.switches.(lo) ~peer:t.switches.(hi);
        Switch.resync t.switches.(hi) ~peer:t.switches.(lo))

let schedule_join t ~at ~switch:i mc role =
  Sim.Engine.schedule_at t.engine ~time:at (fun () -> join t ~switch:i mc role)

let schedule_leave t ~at ~switch:i mc =
  Sim.Engine.schedule_at t.engine ~time:at (fun () -> leave t ~switch:i mc)

let schedule_link_down t ~at u v =
  Sim.Engine.schedule_at t.engine ~time:at (fun () ->
      link_change t u v ~up:false)

let schedule_link_up t ~at u v =
  Sim.Engine.schedule_at t.engine ~time:at (fun () ->
      link_change t u v ~up:true)

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

(* The links some endpoint's hello agent holds under damping
   suppression, each once as [(lo, hi)], ascending. *)
let suppressed_links t =
  match t.health with
  | None -> []
  | Some h ->
    let links = ref [] in
    Array.iteri
      (fun i agent ->
        List.iter
          (fun peer -> links := (min i peer, max i peer) :: !links)
          (Health.Hello.suppressed agent))
      h.agents;
    List.sort_uniq
      (fun (a, b) (c, d) ->
        match Int.compare a c with 0 -> Int.compare b d | r -> r)
      !links

let terminal_violations t =
  let truth =
    Mc_id.Tbl.fold (fun mc members acc -> (mc, members) :: acc) t.truth []
  in
  Terminal.check ~graph:t.graph ~truth t.switches
  @ Terminal.suppress_install ~suppressed:(suppressed_links t) t.switches

let divergence t mc = List.map Terminal.to_string (violations t mc)

let converged t mc = violations t mc = []

let agreed_topology t mc =
  if converged t mc then
    Array.find_map (fun sw -> Switch.topology sw mc) t.switches
  else None

(* ------------------------------------------------------------------ *)
(* Link-health observability *)

let health_summary t =
  Option.map
    (fun h ->
      let suppressed =
        Array.fold_left
          (fun acc agent -> acc + List.length (Health.Hello.suppressed agent))
          0 h.agents
      in
      let flaps =
        Array.fold_left (fun acc a -> acc + Health.Hello.flaps a) 0 h.agents
      in
      {
        h_detections = Metrics.Registry.sum h.detections;
        h_recoveries = Metrics.Registry.sum h.recoveries;
        h_false_positives = Metrics.Registry.sum h.false_positives;
        h_latencies = List.sort Float.compare h.latencies;
        h_bound = Health.Config.detect_bound h.hc;
        h_suppressed = suppressed;
        h_hellos = Metrics.Registry.sum h.hellos_sent;
        h_flaps = flaps;
      })
    t.health
