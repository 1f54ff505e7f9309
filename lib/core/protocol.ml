type payload =
  | Mc of Mc_lsa.t
  | Link of Lsr.Lsdb.link_event
  | Resync of Resync.msg
      (** Unicast crash-recovery exchange (never flooded). *)

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

module Mc_table = Hashtbl.Make (struct
  type t = Mc_id.t

  let equal = Mc_id.equal

  let hash = Mc_id.hash
end)

module Link_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d

  let hash (a, b) = (a * 1000003) lxor b
end)

(* Link-health layer state (opt-in, [Config.health]).  When present,
   scripted and fault-plan link changes touch ground truth only — the
   hello agents must discover them, and the declaring switch originates
   the link LSAs itself (paced when pacing is configured). *)
type health_state = {
  hc : Health.Config.t;
  mutable agents : Health.Hello.t array;
  pacers : Lsr.Lsdb.link_event Health.Pacer.t array;
      (* Per switch when pacing is on; [[||]] otherwise. *)
  truth_changed : float Link_tbl.t;
      (* Last ground-truth change instant per link — detection-latency
         base.  Crashes use the window bounds instead (see [truth_down]). *)
  mutable hs_detections : int;  (* down verdicts matching ground truth *)
  mutable hs_recoveries : int;  (* up verdicts *)
  mutable hs_false_positives : int;
  mutable hs_latencies : float list;  (* down-detection latencies *)
  mutable hs_hellos_sent : int;
  mutable hs_hellos_received : int;
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
  h_pacer_emitted : int;
  h_pacer_coalesced : int;
  h_pacer_forced : int;
}

type t = {
  engine : Sim.Engine.t;
  graph : Net.Graph.t;
  config : Config.t;
  faults : Faults.Plan.t option;
  switches : Switch.t array;
  flooding : payload Lsr.Flooding.t;
  mutable health : health_state option;
  seqs : Lsr.Lsa.Seq.counter array;
  link_versions : int Link_tbl.t;
      (** Ground-truth per-link change counter: a link's state changes
          are totally ordered in real time, so the n-th change of a link
          is stamped version n — both detecting endpoints flood the same
          versioned event, and {!Lsr.Lsdb} images merge by per-link max
          during resynchronisation. *)
  truth : Member.t Mc_table.t;  (** Ground-truth membership per MC. *)
  trace : Sim.Trace.t;
  metrics : Metrics.Registry.t;
  mutable events : int;
  mutable mc_floodings : int;
  mutable link_floodings : int;
  mutable first_event : float option;
  mutable last_change : float option;
  mutable observers : (unit -> unit) list;
}

let flood_link_event t ~from (ev : Lsr.Lsdb.link_event) =
  t.link_floodings <- t.link_floodings + 1;
  Metrics.Registry.incr t.metrics "protocol.link_floodings";
  let seq = Lsr.Lsa.Seq.next t.seqs.(from) in
  let lsa = Lsr.Lsa.make ~origin:from ~seq (Link ev) in
  if Sim.Trace.enabled t.trace then begin
    let oid =
      Sim.Trace.emit t.trace ~time:(Sim.Engine.now t.engine)
        (Lsa_originated
           {
             switch = from;
             mc = "";
             seq;
             ev = (if ev.up then "link-up" else "link-down");
             proposal = false;
             stamp = [||];
           })
    in
    Sim.Trace.with_context t.trace oid (fun () ->
        Lsr.Flooding.flood t.flooding lsa)
  end
  else Lsr.Flooding.flood t.flooding lsa

let create ~graph ~config ?faults ?(trace = Sim.Trace.disabled)
    ?(metrics = Metrics.Registry.disabled)
    ?(series = Metrics.Series.disabled) () =
  let n = Net.Graph.n_nodes graph in
  if n < 2 then invalid_arg "Protocol.create: need at least 2 switches";
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Protocol.create: " ^ msg));
  let engine = Sim.Engine.create () in
  let switches =
    Array.init n (fun id ->
        Switch.create ~id ~n ~config ~engine ~graph ~trace ~metrics ())
  in
  let deliver ~switch (lsa : payload Lsr.Lsa.t) =
    match lsa.payload with
    | Mc mc_lsa -> Switch.receive switches.(switch) mc_lsa
    | Link ev -> Switch.link_event switches.(switch) ev ~detector:false
    | Resync msg -> Switch.receive_resync switches.(switch) msg
  in
  let transmit =
    match faults with
    | None -> None
    | Some plan ->
      Faults.Plan.instrument plan ~trace ~metrics ();
      Some
        (fun ~src ~dst ~base_delay ->
          Faults.Plan.transmit plan ~src ~dst ~now:(Sim.Engine.now engine)
            ~base_delay)
  in
  let flooding =
    Lsr.Flooding.create ~engine ~graph ~t_hop:config.Config.t_hop
      ~mode:config.Config.flood_mode ~reliability:config.Config.reliability
      ?transmit ~trace ~metrics ~series ~deliver ()
  in
  (* Flight-recorder probe: one engine-level sample per executed event.
     Installed only when the series is live — the disabled engine path
     stays a single [None] branch — and it only observes: reading the
     clock, the calendar length, and per-switch LSDB sizes can neither
     schedule events nor perturb protocol state, so figure output stays
     byte-identical with recording on.  LSDB sizes are sampled once per
     bucket boundary (first event at or past it), not per event. *)
  if Metrics.Series.enabled series then begin
    let width = Metrics.Series.bucket_width series in
    let last_bucket = ref min_int in
    Sim.Engine.set_probe engine (fun () ->
        let now = Sim.Engine.now engine in
        Metrics.Series.add series ~name:"engine.events" ~time:now 1.0;
        Metrics.Series.add series ~name:"engine.queue_depth" ~time:now
          (float_of_int (Sim.Engine.pending engine));
        let bucket = int_of_float (Float.floor (now /. width)) in
        if bucket <> !last_bucket then begin
          last_bucket := bucket;
          Array.iter
            (fun sw ->
              Metrics.Series.add series ~switch:(Switch.id sw)
                ~name:"switch.lsdb_entries" ~time:now
                (float_of_int (Switch.lsdb_changed_count sw)))
            switches
        end)
  end;
  let net =
    {
      engine;
      graph;
      config;
      faults;
      switches;
      flooding;
      health = None;
      seqs = Array.init n (fun _ -> Lsr.Lsa.Seq.create ());
      link_versions = Link_tbl.create 16;
      truth = Mc_table.create 8;
      trace;
      metrics;
      events = 0;
      mc_floodings = 0;
      link_floodings = 0;
      first_event = None;
      last_change = None;
      observers = [];
    }
  in
  Array.iteri
    (fun id sw ->
      Switch.set_flood sw (fun (mc_lsa : Mc_lsa.t) ->
          net.mc_floodings <- net.mc_floodings + 1;
          Metrics.Registry.incr metrics "protocol.mc_floodings";
          let seq = Lsr.Lsa.Seq.next net.seqs.(id) in
          let lsa = Lsr.Lsa.make ~origin:id ~seq (Mc mc_lsa) in
          if Sim.Trace.enabled trace then begin
            let oid =
              Sim.Trace.emit trace ~time:(Sim.Engine.now engine)
                (Lsa_originated
                   {
                     switch = id;
                     mc = Format.asprintf "%a" Mc_id.pp mc_lsa.mc;
                     seq;
                     ev = Mc_lsa.event_to_string mc_lsa.event;
                     proposal = mc_lsa.proposal <> None;
                     stamp = Timestamp.to_array mc_lsa.stamp;
                   })
            in
            Sim.Trace.with_context trace oid (fun () ->
                Lsr.Flooding.flood net.flooding lsa)
          end
          else Lsr.Flooding.flood net.flooding lsa);
      Switch.set_flood_link sw (fun ev -> flood_link_event net ~from:id ev);
      Switch.set_send_resync sw (fun ~peer msg ->
          Metrics.Registry.incr metrics "protocol.resync_messages";
          let seq = Lsr.Lsa.Seq.next net.seqs.(id) in
          let lsa = Lsr.Lsa.make ~origin:id ~seq (Resync msg) in
          (* Only the recoverer's summary needs a failure signal: a lost
             delta is covered by the recoverer's session deadline. *)
          let on_giveup =
            match msg with
            | Resync.Summary _ ->
              fun () -> Switch.resync_transport_failed sw ~peer
            | Resync.Delta _ -> fun () -> ()
          in
          if Sim.Trace.enabled trace then begin
            let oid =
              Sim.Trace.emit trace ~time:(Sim.Engine.now engine)
                (Lsa_originated
                   {
                     switch = id;
                     mc = "";
                     seq;
                     ev =
                       (match msg with
                       | Resync.Summary _ -> "resync-summary"
                       | Resync.Delta _ -> "resync-delta");
                     proposal = false;
                     stamp = [||];
                   })
            in
            Sim.Trace.with_context trace oid (fun () ->
                Lsr.Flooding.send net.flooding ~src:id ~dst:peer ~on_giveup lsa)
          end
          else Lsr.Flooding.send net.flooding ~src:id ~dst:peer ~on_giveup lsa);
      Switch.set_on_change sw (fun () ->
          net.last_change <- Some (Sim.Engine.now engine);
          List.iter (fun f -> f ()) net.observers))
    switches;
  (* Crash recovery: at each crash window's close the switch's forwarding
     plane returns, but every LSA flooded meanwhile is gone for good —
     the plan dropped deliveries to it and floods from it.  Schedule the
     resynchronisation exchange at that instant, traced or not (protocol
     behavior must never depend on tracing). *)
  (match faults with
  | Some plan ->
    List.iter
      (fun (sw, (_, until)) ->
        ignore
          (Sim.Engine.schedule_at engine ~time:until (fun () ->
               Switch.begin_resync switches.(sw))))
      (Faults.Plan.crash_windows plan)
  | None -> ());
  (* Traced runs get the fault plan's scheduled windows marked on the
     timeline, so an analyzer can correlate what a switch missed with
     when it was down.  Scheduled only when tracing: untraced runs must
     keep a byte-identical event calendar. *)
  (match faults with
  | Some plan when Sim.Trace.enabled trace ->
    let mark ~time event =
      ignore
        (Sim.Engine.schedule_at engine ~time (fun () ->
             ignore (Sim.Trace.emit trace ~time event)))
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
     adjacency; scripted/fault-plan link changes become ground truth the
     detectors must discover (see [link_change]).  Crash windows pause
     the crashed switch's own sensing — a dead switch observes nothing —
     and restart it with fresh detectors on recovery. *)
  (match config.Config.health with
  | None -> ()
  | Some hc ->
    let crash_windows =
      match faults with
      | Some plan -> Faults.Plan.crash_windows plan
      | None -> []
    in
    let crashed sw at =
      List.exists
        (fun (s, (from_, until)) -> s = sw && at >= from_ && at < until)
        crash_windows
    in
    (* When the peer is inside a crash window, the instant it opened:
       silence from a crashed switch is a genuine failure with the
       window's start as its ground-truth change time. *)
    let crash_since peer at =
      List.fold_left
        (fun acc (s, (from_, until)) ->
          if s = peer && at >= from_ && at < until then Some from_ else acc)
        None crash_windows
    in
    let all_edges = Net.Graph.all_edges graph in
    let adjacency i =
      List.filter_map
        (fun ((e : Net.Graph.edge), _up) ->
          if e.Net.Graph.u = i then Some e.Net.Graph.v
          else if e.Net.Graph.v = i then Some e.Net.Graph.u
          else None)
        all_edges
    in
    let pacers =
      match hc.Health.Config.pacing with
      | None -> [||]
      | Some p ->
        Array.init n (fun i ->
            Health.Pacer.create ~engine
              ~min_interval:p.Health.Config.p_min_interval
              ~cap:p.Health.Config.p_cap
              ~emit:(fun _key ev -> flood_link_event net ~from:i ev)
              ())
    in
    let h =
      {
        hc;
        agents = [||];
        pacers;
        truth_changed = Link_tbl.create 16;
        hs_detections = 0;
        hs_recoveries = 0;
        hs_false_positives = 0;
        hs_latencies = [];
        hs_hellos_sent = 0;
        hs_hellos_received = 0;
      }
    in
    (* One hello on the wire, subject to the same fault plan as LSAs:
       drops, duplication and jitter are exactly the adversities the
       detectors must tolerate.  Arrival is gated on the link being up
       and the receiver being alive {e at delivery time}. *)
    let send i ~peer =
      let at = Sim.Engine.now engine in
      if not (crashed i at) then begin
        h.hs_hellos_sent <- h.hs_hellos_sent + 1;
        Metrics.Registry.incr metrics ~switch:i "health.hellos_sent";
        let delays =
          match transmit with
          | Some f -> f ~src:i ~dst:peer ~base_delay:config.Config.t_hop
          | None -> [ config.Config.t_hop ]
        in
        List.iter
          (fun delay ->
            ignore
              (Sim.Engine.schedule engine ~delay (fun () ->
                   if Net.Graph.link_is_up graph i peer then begin
                     let at = Sim.Engine.now engine in
                     if not (crashed peer at) then begin
                       h.hs_hellos_received <- h.hs_hellos_received + 1;
                       Metrics.Registry.incr metrics ~switch:peer
                         "health.hellos_received";
                       Health.Hello.on_hello h.agents.(peer) ~from:i
                     end
                   end)))
          delays
      end
    in
    (* A detector verdict: the switch's belief about an incident link
       changed.  Version the event, judge it against ground truth, tell
       the switch, and originate the link LSA — directly or through the
       pacer. *)
    let declare i ~peer ~up =
      let at = Sim.Engine.now engine in
      let lo, hi = if i < peer then (i, peer) else (peer, i) in
      let version =
        1 + Option.value ~default:0 (Link_tbl.find_opt net.link_versions (lo, hi))
      in
      Link_tbl.replace net.link_versions (lo, hi) version;
      let ev = { Lsr.Lsdb.u = i; v = peer; up; version } in
      let truth_since =
        if not (Net.Graph.link_is_up graph i peer) then
          Some (Option.value ~default:0.0 (Link_tbl.find_opt h.truth_changed (lo, hi)))
        else crash_since peer at
      in
      let latency, spurious =
        if up then
          (* Up verdicts rest on hellos that genuinely arrived; measure
             recovery latency from the last ground-truth change. *)
          ( (match Link_tbl.find_opt h.truth_changed (lo, hi) with
            | Some since -> at -. since
            | None -> 0.0),
            false )
        else
          match truth_since with
          | Some since -> (at -. since, false)
          | None -> (0.0, true)
      in
      if up then begin
        h.hs_recoveries <- h.hs_recoveries + 1;
        Metrics.Registry.incr metrics ~switch:i "health.recoveries";
        Metrics.Registry.observe metrics ~switch:i "health.recovery_latency"
          latency
      end
      else begin
        (* Retransmitting into a dead adjacency is pointless; cancel the
           pending state and fire the give-ups exactly once each. *)
        ignore (Lsr.Flooding.abandon_link flooding ~src:i ~dst:peer);
        if spurious then begin
          h.hs_false_positives <- h.hs_false_positives + 1;
          Metrics.Registry.incr metrics ~switch:i "health.false_positives"
        end
        else begin
          h.hs_detections <- h.hs_detections + 1;
          h.hs_latencies <- latency :: h.hs_latencies;
          Metrics.Registry.incr metrics ~switch:i "health.detections";
          Metrics.Registry.observe metrics ~switch:i "health.detection_latency"
            latency
        end
      end;
      if Sim.Trace.enabled trace then
        ignore
          (Sim.Trace.emit trace ~time:at
             (Sim.Trace.Link_detected { switch = i; peer; up; latency; spurious }));
      Switch.link_event switches.(i) ev ~detector:true;
      if Array.length h.pacers > 0 then
        Health.Pacer.submit h.pacers.(i) ~key:(lo, hi) ev
      else flood_link_event net ~from:i ev;
      if up then
        ignore
          (Sim.Engine.schedule engine ~delay:config.Config.t_hop (fun () ->
               Switch.resync switches.(i) ~peer:switches.(peer)))
    in
    h.agents <-
      Array.init n (fun i ->
          Health.Hello.create ~engine ~config:hc ~self:i ~peers:(adjacency i)
            ~send:(fun ~peer -> send i ~peer)
            ~declare:(fun ~peer ~up -> declare i ~peer ~up)
            ~on_suppress:(fun ~peer ~resumed ->
              Metrics.Registry.incr metrics ~switch:i
                (if resumed then "health.unsuppressions"
                 else "health.suppressions");
              if Sim.Trace.enabled trace then
                ignore
                  (Sim.Trace.emit trace ~time:(Sim.Engine.now engine)
                     (Sim.Trace.Link_suppressed { switch = i; peer; resumed })))
            ());
    net.health <- Some h;
    Array.iter Health.Hello.start h.agents;
    List.iter
      (fun (sw, (from_, until)) ->
        ignore
          (Sim.Engine.schedule_at engine ~time:from_ (fun () ->
               Health.Hello.pause h.agents.(sw)));
        ignore
          (Sim.Engine.schedule_at engine ~time:until (fun () ->
               Health.Hello.resume h.agents.(sw))))
      crash_windows);
  net

let engine t = t.engine

let add_observer t f = t.observers <- t.observers @ [ f ]

let graph t = t.graph

let config t = t.config

let faults t = t.faults

let n_switches t = Array.length t.switches

let switch t i = t.switches.(i)

(* ------------------------------------------------------------------ *)
(* Event injection *)

let note_event t =
  t.events <- t.events + 1;
  Metrics.Registry.incr t.metrics "protocol.events";
  if t.first_event = None then t.first_event <- Some (Sim.Engine.now t.engine)

let check_switch t i =
  if i < 0 || i >= Array.length t.switches then
    invalid_arg (Printf.sprintf "Protocol: switch %d out of range" i)

let truth_members t mc =
  Option.value ~default:Member.empty (Mc_table.find_opt t.truth mc)

let join t ~switch:i mc role =
  check_switch t i;
  note_event t;
  Mc_table.replace t.truth mc (Member.join (truth_members t mc) i role);
  Switch.host_join t.switches.(i) mc role

let leave t ~switch:i mc =
  check_switch t i;
  note_event t;
  Mc_table.replace t.truth mc (Member.leave (truth_members t mc) i);
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
    Link_tbl.replace h.truth_changed (lo, hi) now;
    if Sim.Trace.enabled t.trace then
      Sim.Trace.recordf t.trace ~time:now ~category:"truth"
        "link %d-%d ground truth now %s (detectors must discover it)" lo hi
        (if up then "up" else "down")
  | None ->
  let version =
    1 + Option.value ~default:0 (Link_tbl.find_opt t.link_versions (lo, hi))
  in
  Link_tbl.replace t.link_versions (lo, hi) version;
  let ev = { Lsr.Lsdb.u; v; up; version } in
  (* Both endpoints detect the change: each updates its image, floods a
     non-MC LSA, and raises the MC link events for the connections whose
     topology used the link (the paper's Figure 2 draws one detecting
     switch; detection at both ends is what keeps BOTH sides of the cut
     repairing when the failure splits the network). *)
  Switch.link_event t.switches.(hi) ev ~detector:true;
  flood_link_event t ~from:hi ev;
  Switch.link_event t.switches.(lo) ev ~detector:true;
  flood_link_event t ~from:lo ev;
  (* A recovered adjacency triggers an MC database exchange between its
     endpoints (one hop of delay), so the two sides of a healed
     partition reconcile — see Switch.resync. *)
  if up then
    ignore
      (Sim.Engine.schedule t.engine ~delay:t.config.Config.t_hop (fun () ->
           Switch.resync t.switches.(lo) ~peer:t.switches.(hi);
           Switch.resync t.switches.(hi) ~peer:t.switches.(lo)))

let link_down t u v = link_change t u v ~up:false

let link_up t u v = link_change t u v ~up:true

let schedule_join t ~at ~switch:i mc role =
  ignore (Sim.Engine.schedule_at t.engine ~time:at (fun () -> join t ~switch:i mc role))

let schedule_leave t ~at ~switch:i mc =
  ignore (Sim.Engine.schedule_at t.engine ~time:at (fun () -> leave t ~switch:i mc))

let schedule_link_down t ~at u v =
  ignore (Sim.Engine.schedule_at t.engine ~time:at (fun () -> link_down t u v))

let schedule_link_up t ~at u v =
  ignore (Sim.Engine.schedule_at t.engine ~time:at (fun () -> link_up t u v))

(* ------------------------------------------------------------------ *)
(* Running and measurements *)

let run ?until ?max_events t = Sim.Engine.run ?until ?max_events t.engine

let totals t =
  let computations = ref 0
  and withdrawn = ref 0
  and proposals_flooded = ref 0
  and proposals_accepted = ref 0 in
  Array.iter
    (fun sw ->
      let s = Switch.stats sw in
      computations := !computations + s.Switch.computations;
      withdrawn := !withdrawn + s.Switch.computations_withdrawn;
      proposals_flooded := !proposals_flooded + s.Switch.proposals_flooded;
      proposals_accepted := !proposals_accepted + s.Switch.proposals_accepted)
    t.switches;
  {
    events = t.events;
    computations = !computations;
    computations_withdrawn = !withdrawn;
    mc_floodings = t.mc_floodings;
    link_floodings = t.link_floodings;
    proposals_flooded = !proposals_flooded;
    proposals_accepted = !proposals_accepted;
    messages = Lsr.Flooding.messages_sent t.flooding;
    acks = Lsr.Flooding.acks_sent t.flooding;
    retransmissions = Lsr.Flooding.retransmissions t.flooding;
  }

let reset_counters t =
  Array.iter
    (fun sw ->
      let s = Switch.stats sw in
      s.Switch.computations <- 0;
      s.Switch.computations_withdrawn <- 0;
      s.Switch.proposals_flooded <- 0;
      s.Switch.event_lsas_flooded <- 0;
      s.Switch.proposals_accepted <- 0;
      s.Switch.lsas_received <- 0)
    t.switches;
  Lsr.Flooding.reset_counters t.flooding;
  t.events <- 0;
  t.mc_floodings <- 0;
  t.link_floodings <- 0;
  t.first_event <- None;
  t.last_change <- None

let first_event_time t = t.first_event

let last_change_time t = t.last_change

let convergence_rounds t =
  match (t.first_event, t.last_change) with
  | Some first, Some last ->
    let round = Config.round_length t.config ~graph:t.graph in
    if round <= 0.0 then None else Some ((last -. first) /. round)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Agreement *)

let states t mc =
  Array.to_list t.switches
  |> List.filter_map (fun sw ->
         match (Switch.members sw mc, Switch.topology sw mc) with
         | Some m, Some tree -> Some (Switch.id sw, m, tree)
         | _ -> None)

let divergence t mc =
  let problems = ref [] in
  let report fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  (match states t mc with
  | [] -> ()
  | (ref_id, ref_members, ref_tree) :: rest ->
    List.iter
      (fun (id, m, tree) ->
        if not (Member.equal m ref_members) then
          report "switch %d member list differs from switch %d" id ref_id;
        if not (Mctree.Tree.equal tree ref_tree) then
          report "switch %d topology differs from switch %d" id ref_id)
      rest;
    let truth = truth_members t mc in
    if not (Member.equal ref_members truth) then
      report "member lists do not match injected ground truth";
    if not (Member.is_empty truth) then begin
      if not (Mctree.Tree.is_valid_mc_topology t.graph ref_tree) then
        report "agreed topology is not a valid embedded tree";
      let terminals = Mctree.Tree.Int_set.elements (Mctree.Tree.terminals ref_tree) in
      if terminals <> Member.ids truth then
        report "agreed topology terminals do not match the member set"
    end);
  Array.iter
    (fun sw ->
      if not (Switch.quiescent sw mc) then
        report "switch %d still has pending work" (Switch.id sw))
    t.switches;
  List.rev !problems

let converged t mc = divergence t mc = []

let agreed_topology t mc =
  match states t mc with
  | (_, _, tree) :: _ when converged t mc -> Some tree
  | _ -> None

let converged_among t mc ids =
  let sub =
    List.filter_map
      (fun i ->
        let sw = t.switches.(i) in
        match (Switch.members sw mc, Switch.topology sw mc) with
        | Some m, Some tree -> Some (m, tree)
        | _ -> None)
      ids
  in
  List.for_all (fun i -> Switch.quiescent t.switches.(i) mc) ids
  &&
  match sub with
  | [] -> true
  | (m0, t0) :: rest ->
    List.for_all
      (fun (m, tree) -> Member.equal m m0 && Mctree.Tree.equal tree t0)
      rest

(* ------------------------------------------------------------------ *)
(* Link-health observability *)

let health_summary t =
  Option.map
    (fun h ->
      let suppressed =
        Array.fold_left
          (fun acc agent ->
            List.fold_left
              (fun acc (_, _, s) -> if s then acc + 1 else acc)
              acc
              (Health.Hello.view agent))
          0 h.agents
      in
      let flaps =
        Array.fold_left (fun acc a -> acc + Health.Hello.flaps a) 0 h.agents
      in
      let pe, pc, pf =
        Array.fold_left
          (fun (e, c, f) p ->
            ( e + Health.Pacer.emitted p,
              c + Health.Pacer.coalesced p,
              f + Health.Pacer.forced p ))
          (0, 0, 0) h.pacers
      in
      {
        h_detections = h.hs_detections;
        h_recoveries = h.hs_recoveries;
        h_false_positives = h.hs_false_positives;
        h_latencies = List.sort Float.compare h.hs_latencies;
        h_bound = Health.Config.detect_bound h.hc;
        h_suppressed = suppressed;
        h_hellos = h.hs_hellos_sent;
        h_flaps = flaps;
        h_pacer_emitted = pe;
        h_pacer_coalesced = pc;
        h_pacer_forced = pf;
      })
    t.health

let health_views t =
  match t.health with
  | None -> []
  | Some h ->
    Array.to_list (Array.mapi (fun i a -> (i, Health.Hello.view a)) h.agents)
