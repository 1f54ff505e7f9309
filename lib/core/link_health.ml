type summary = {
  h_detections : int;
  h_recoveries : int;
  h_false_positives : int;
  h_latencies : float list;  (** Sorted ascending. *)
  h_bound : float;
  h_suppressed : int;
  h_hellos : int;
  h_flaps : int;
}

(* The layer's tallies: what its verdicts are judged against and
   what they count. *)
type counts = {
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

type t = {
  config : Health.Config.t;
  engine : Sim.Engine.t;
  counts : counts;
  agents : Health.Hello.t array;
}

(* A detector verdict at switch [i]: its belief about the link to
   [peer] changed.  Version the event, judge it against the link's
   ground truth, tell the switch, and originate the link LSA. *)
let declare c ~engine ~graph ~t_hop ~flooding ~clock switches i ~peer ~up =
  let trace = Sim.Engine.trace engine in
  let at = Sim.Engine.now engine in
  let lo, hi = if i < peer then (i, peer) else (peer, i) in
  let ev = Lsr.Lsdb.stamp clock i peer ~up in
  let last_change = Lsr.Lsdb.Link_tbl.find_opt c.truth_changed (lo, hi) in
  let latency, spurious =
    if up then
      (* Up verdicts rest on hellos that genuinely arrived; measure
         recovery latency from the last ground-truth change. *)
      ( (match last_change with Some since -> at -. since | None -> 0.0),
        false )
    else if Net.Graph.link_is_up graph i peer then (0.0, true)
    else (at -. Option.value ~default:0.0 last_change, false)
  in
  if up then Metrics.Registry.bump c.recoveries.(i)
  else begin
    (* Retransmitting into a dead adjacency is pointless; cancel the
       pending state and fire the give-ups exactly once each. *)
    ignore (Lsr.Flooding.abandon_link flooding ~src:i ~dst:peer);
    if spurious then Metrics.Registry.bump c.false_positives.(i)
    else begin
      Metrics.Registry.bump c.detections.(i);
      c.latencies <- latency :: c.latencies
    end
  end;
  if Sim.Trace.enabled trace then
    ignore
      (Sim.Trace.emit trace ~time:at
         (Sim.Trace.Link_detected { switch = i; peer; up; latency; spurious }));
  Switch.detect switches.(i) ev;
  if up then
    Sim.Engine.schedule engine ~delay:t_hop (fun () ->
        Switch.resync switches.(i) ~peer:switches.(peer))

let on_suppress c ~engine i ~peer ~resumed =
  let trace = Sim.Engine.trace engine in
  Metrics.Registry.bump
    (if resumed then c.unsuppressions.(i) else c.suppressions.(i));
  if Sim.Trace.enabled trace then
    ignore
      (Sim.Trace.emit trace ~time:(Sim.Engine.now engine)
         (Sim.Trace.Link_suppressed { switch = i; peer; resumed }))

let create ~engine ~graph ~config ~t_hop ~flooding ~clock switches =
  let n = Array.length switches in
  let per_switch = Metrics.Registry.per_switch (Sim.Engine.metrics engine) n in
  let c =
    {
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
     up {e at delivery time}.  Every copy posts the one [arrive]
     callback with its direction packed as [src * n + peer]; it reads
     the receiving agent from [agents], filled once they exist. *)
  let agents = ref [||] in
  let arrive =
    Sim.Engine.callback (fun key ->
        let i = key / n and peer = key mod n in
        if Net.Graph.link_is_up graph i peer then begin
          Metrics.Registry.bump c.hellos_received.(peer);
          Health.Hello.on_hello !agents.(peer) ~from:i
        end)
  in
  let send i ~peer =
    Metrics.Registry.bump c.hellos_sent.(i);
    ignore (Lsr.Flooding.wire flooding ~src:i ~dst:peer arrive ((i * n) + peer))
  in
  agents :=
    Array.init n (fun i ->
        Health.Hello.create ~engine ~config
          ~peers:(List.map fst (Net.Graph.links graph i))
          ~send:(fun ~peer -> send i ~peer)
          ~declare:(declare c ~engine ~graph ~t_hop ~flooding ~clock switches i)
          ~on_suppress:(on_suppress c ~engine i));
  Array.iter Health.Hello.start !agents;
  { config; engine; counts = c; agents = !agents }

let link_change t u v ~up =
  let lo, hi = if u < v then (u, v) else (v, u) in
  let now = Sim.Engine.now t.engine in
  let trace = Sim.Engine.trace t.engine in
  Lsr.Lsdb.Link_tbl.replace t.counts.truth_changed (lo, hi) now;
  if Sim.Trace.enabled trace then
    Sim.Trace.recordf trace ~time:now ~category:"truth"
      "link %d-%d ground truth now %s (detectors must discover it)" lo hi
      (if up then "up" else "down")

let suppressed_links t =
  let links = ref [] in
  Array.iteri
    (fun i agent ->
      List.iter
        (fun peer -> links := (min i peer, max i peer) :: !links)
        (Health.Hello.suppressed agent))
    t.agents;
  List.sort_uniq
    (fun (a, b) (c, d) ->
      match Int.compare a c with 0 -> Int.compare b d | r -> r)
    !links

let summary { config; counts = c; agents; _ } =
  let sum f = Array.fold_left (fun acc agent -> acc + f agent) 0 agents in
  {
    h_detections = Metrics.Registry.sum c.detections;
    h_recoveries = Metrics.Registry.sum c.recoveries;
    h_false_positives = Metrics.Registry.sum c.false_positives;
    h_latencies = List.sort Float.compare c.latencies;
    h_bound = Health.Config.detect_bound config;
    h_suppressed = sum (fun a -> List.length (Health.Hello.suppressed a));
    h_hellos = Metrics.Registry.sum c.hellos_sent;
    h_flaps = sum Health.Hello.flaps;
  }
