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

(* One directed adjacency: switch [self] listening for [peer]'s hellos. *)
type adj = {
  self : int;
  peer : int;
  det : Health.Detector.t;
  damp : Health.Damping.t option;
  mutable up : bool;  (* [self]'s belief about the link *)
  mutable streak : int;  (* consecutive hellos heard while believed down *)
  mutable check : int;
      (* The token its armed down-verdict check is posted with, -1 when
         none is armed. *)
  mutable suppressed : bool;  (* held down by damping *)
}

type t = {
  config : Health.Config.t;
  engine : Sim.Engine.t;
  graph : Net.Graph.t;
  t_hop : float;
  flooding : Switch.payload Lsr.Flooding.t;
  clock : Lsr.Lsdb.clock;
  switches : Switch.t array;
  adjs : adj array;
      (* Every directed adjacency, switch by switch, each switch's in
         ascending peer order: switch [i]'s are [first.(i)] to
         [first.(i + 1) - 1]. *)
  first : int array;
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
  mutable flaps : int;  (* down declarations *)
  mutable armed : int;
      (* Checks armed so far: a check's token is [armed * |adjs| + a],
         unique to its arming, so re-arming makes the last one stale. *)
}

(* The layer's engine callbacks, each built once over a [t]. *)
type posts = {
  arrive : Sim.Engine.callback;  (* a hello, with [src * n + dst] *)
  verdict : Sim.Engine.callback;  (* an armed down-verdict check's token *)
  round : Sim.Engine.callback;  (* a hello round, with the switch *)
  readmit : Sim.Engine.callback;  (* a suppressed adjacency's timer *)
  resync : Sim.Engine.callback;  (* an up verdict's exchange, [i * n + peer] *)
}

(* A verdict of [a.self] about its link to [a.peer]: its belief
   changed.  Version the event, judge it against the link's ground
   truth, tell the switch (which originates the link LSA) and, after
   an up verdict, exchange MC state with the peer one hop later. *)
let declare t p a ~up =
  let i = a.self and peer = a.peer in
  let trace = Sim.Engine.trace t.engine in
  let at = Sim.Engine.now t.engine in
  let lo, hi = if i < peer then (i, peer) else (peer, i) in
  let ev = Lsr.Lsdb.stamp t.clock i peer ~up in
  let last_change = Lsr.Lsdb.Link_tbl.find_opt t.truth_changed (lo, hi) in
  let latency, spurious =
    if up then
      (* Up verdicts rest on hellos that genuinely arrived; measure
         recovery latency from the last ground-truth change. *)
      ( (match last_change with Some since -> at -. since | None -> 0.0),
        false )
    else if Net.Graph.link_is_up t.graph i peer then (0.0, true)
    else (at -. Option.value ~default:0.0 last_change, false)
  in
  if up then Metrics.Registry.bump t.recoveries.(i)
  else begin
    (* Retransmitting into a dead adjacency is pointless; cancel the
       pending state and fire the give-ups exactly once each. *)
    ignore (Lsr.Flooding.abandon_link t.flooding ~src:i ~dst:peer);
    if spurious then Metrics.Registry.bump t.false_positives.(i)
    else begin
      Metrics.Registry.bump t.detections.(i);
      t.latencies <- latency :: t.latencies
    end
  end;
  if Sim.Trace.enabled trace then
    ignore
      (Sim.Trace.emit trace ~time:at
         (Sim.Trace.Link_detected { switch = i; peer; up; latency; spurious }));
  Switch.detect t.switches.(i) ev;
  if up then
    Sim.Engine.post t.engine ~delay:t.t_hop p.resync
      ((i * Array.length t.switches) + peer)

let note_suppress t { self = switch; peer; _ } ~resumed =
  let trace = Sim.Engine.trace t.engine in
  Metrics.Registry.bump
    (if resumed then t.unsuppressions.(switch) else t.suppressions.(switch));
  if Sim.Trace.enabled trace then
    ignore
      (Sim.Trace.emit trace ~time:(Sim.Engine.now t.engine)
         (Sim.Trace.Link_suppressed { switch; peer; resumed }))

(* Arm adjacency [i]'s down-verdict check at its detector's deadline,
   retiring the one armed before, but only while hellos are still
   flowing at that instant (deadline within the horizon): silence after
   the horizon is the schedule ending, not the link failing. *)
let arm_check t p i =
  let a = t.adjs.(i) in
  if a.check >= 0 then begin
    a.check <- -1;
    Sim.Engine.retire t.engine
  end;
  let deadline = Health.Detector.deadline a.det in
  if deadline <= t.config.Health.Config.horizon then begin
    a.check <- (t.armed * Array.length t.adjs) + i;
    t.armed <- t.armed + 1;
    Sim.Engine.post_at t.engine ~time:deadline p.verdict a.check
  end

let unsuppress t p i =
  let a = t.adjs.(i) in
  a.suppressed <- false;
  a.streak <- 0;
  Health.Detector.reset a.det ~now:(Sim.Engine.now t.engine);
  note_suppress t a ~resumed:true;
  arm_check t p i

let arm_readmit t p i damp =
  match Health.Damping.reuse_time damp ~now:(Sim.Engine.now t.engine) with
  | None -> unsuppress t p i
  | Some at ->
    (* One extra period of margin absorbs float rounding in the decay
       solve; the timer re-checks and re-arms, so progress is sure. *)
    Sim.Engine.post_at t.engine
      ~time:(at +. t.config.Health.Config.period)
      p.readmit i

(* A readmission timer runs only while its adjacency is suppressed:
   suppression arms the first, and only this timer lifts it. *)
let readmit t p i =
  let now = Sim.Engine.now t.engine in
  match t.adjs.(i).damp with
  | Some damp when Health.Damping.suppressed damp ~now -> arm_readmit t p i damp
  | _ -> unsuppress t p i

(* The check posted with [token], run only while it is its adjacency's
   armed one.  Every arrival and every detector reset re-arms, and no
   check is armed while suppressed, so a live check runs at its
   detector's deadline on an unsuppressed adjacency.  One that finds
   the link already believed down stays silent; the next arrival
   re-arms. *)
let check t p token =
  let i = token mod Array.length t.adjs in
  let a = t.adjs.(i) in
  let now = Sim.Engine.now t.engine in
  a.check <- -1;
  assert ((not a.suppressed) && Health.Detector.down a.det ~now);
  if a.up then begin
    a.up <- false;
    a.streak <- 0;
    t.flaps <- t.flaps + 1;
    declare t p a ~up:false;
    match a.damp with
    | None -> ()
    | Some damp ->
      Health.Damping.flap damp ~now;
      if Health.Damping.suppressed damp ~now then begin
        a.suppressed <- true;
        note_suppress t a ~resumed:false;
        arm_readmit t p i damp
      end
  end

(* A hello from [src] on the wire to [dst], gated on the link being up
   {e at delivery time}; ignored while [dst] holds the adjacency
   suppressed (the interface is administratively down). *)
let arrive t p key =
  let n = Array.length t.switches in
  let src = key / n and dst = key mod n in
  if Net.Graph.link_is_up t.graph src dst then begin
    Metrics.Registry.bump t.hellos_received.(dst);
    let rec find i =
      if i < t.first.(dst + 1) then
        if t.adjs.(i).peer = src then hear i else find (i + 1)
    and hear i =
      let a = t.adjs.(i) in
      if not a.suppressed then begin
        Health.Detector.note_arrival a.det ~now:(Sim.Engine.now t.engine);
        if not a.up then begin
          a.streak <- a.streak + 1;
          if a.streak >= Health.Config.reup then begin
            a.up <- true;
            a.streak <- 0;
            declare t p a ~up:true
          end
        end;
        arm_check t p i
      end
    in
    find t.first.(dst)
  end

(* Switch [i]'s hello round: one hello to every peer it does not hold
   suppressed, on the flooding's wire and subject to the same fault plan
   as LSAs (drops, duplication and jitter are exactly the adversities
   the detectors must tolerate); then the next round, one period on,
   until the horizon.  Hellos keep flowing whatever the belief: a down
   link must keep being probed or recovery would never be seen. *)
let round t p i =
  let n = Array.length t.switches in
  let now = Sim.Engine.now t.engine in
  for j = t.first.(i) to t.first.(i + 1) - 1 do
    let a = t.adjs.(j) in
    if not a.suppressed then begin
      Metrics.Registry.bump t.hellos_sent.(i);
      ignore
        (Lsr.Flooding.wire t.flooding ~src:i ~dst:a.peer p.arrive
           ((i * n) + a.peer))
    end
  done;
  let next = now +. t.config.Health.Config.period in
  if next <= t.config.Health.Config.horizon then
    Sim.Engine.post_at t.engine ~time:next p.round i

let create ~engine ~graph ~config ~t_hop ~flooding ~clock switches =
  (match Health.Config.validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Link_health.create: " ^ e));
  let n = Array.length switches in
  let per_switch = Metrics.Registry.per_switch (Sim.Engine.metrics engine) n in
  let start = Sim.Engine.now engine in
  let adj self (peer, _) =
    {
      self;
      peer;
      det =
        Health.Detector.create ~k:config.Health.Config.detector
          ~period:config.period ~grace:config.grace ~start;
      damp = Option.map Health.Damping.create config.damping;
      up = true;
      streak = 0;
      check = -1;
      suppressed = false;
    }
  in
  let rows = Array.init n (fun i -> List.map (adj i) (Net.Graph.links graph i)) in
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun i row -> first.(i + 1) <- first.(i) + List.length row) rows;
  let adjs = Array.of_list (List.concat (Array.to_list rows)) in
  let t =
    {
      config;
      engine;
      graph;
      t_hop;
      flooding;
      clock;
      switches;
      adjs;
      first;
      truth_changed = Lsr.Lsdb.Link_tbl.create 16;
      detections = per_switch "health.detections";
      recoveries = per_switch "health.recoveries";
      false_positives = per_switch "health.false_positives";
      hellos_sent = per_switch "health.hellos_sent";
      hellos_received = per_switch "health.hellos_received";
      suppressions = per_switch "health.suppressions";
      unsuppressions = per_switch "health.unsuppressions";
      latencies = [];
      flaps = 0;
      armed = 0;
    }
  in
  (* Each callback posts itself or another, so the five are one
     recursive lazy value: forcing it inside its own construction
     raises, so none can run before all five exist. *)
  let rec p =
    lazy
      {
        arrive = Sim.Engine.callback (fun key -> arrive t (Lazy.force p) key);
        verdict =
          Sim.Engine.callback
            ~live:(fun tok -> adjs.(tok mod Array.length adjs).check = tok)
            (fun token -> check t (Lazy.force p) token);
        round = Sim.Engine.callback (fun i -> round t (Lazy.force p) i);
        readmit = Sim.Engine.callback (fun i -> readmit t (Lazy.force p) i);
        resync =
          Sim.Engine.callback (fun key ->
              Switch.resync switches.(key / n) ~peer:switches.(key mod n));
      }
  in
  let p = Lazy.force p in
  (* Switch by switch: arm the checks in ascending peer order, then
     send the first round at once. *)
  for i = 0 to n - 1 do
    for j = first.(i) to first.(i + 1) - 1 do
      arm_check t p j
    done;
    round t p i
  done;
  t

let link_change t u v ~up =
  let lo, hi = if u < v then (u, v) else (v, u) in
  let now = Sim.Engine.now t.engine in
  let trace = Sim.Engine.trace t.engine in
  Lsr.Lsdb.Link_tbl.replace t.truth_changed (lo, hi) now;
  if Sim.Trace.enabled trace then
    Sim.Trace.recordf trace ~time:now ~category:"truth"
      "link %d-%d ground truth now %s (detectors must discover it)" lo hi
      (if up then "up" else "down")

let suppressed_links t =
  Array.fold_left
    (fun acc a ->
      if a.suppressed then (min a.self a.peer, max a.self a.peer) :: acc
      else acc)
    [] t.adjs
  |> List.sort_uniq (fun (a, b) (c, d) ->
         match Int.compare a c with 0 -> Int.compare b d | r -> r)

let summary t =
  {
    h_detections = Metrics.Registry.sum t.detections;
    h_recoveries = Metrics.Registry.sum t.recoveries;
    h_false_positives = Metrics.Registry.sum t.false_positives;
    h_latencies = List.sort Float.compare t.latencies;
    h_bound = Health.Config.detect_bound t.config;
    h_suppressed =
      Array.fold_left
        (fun acc a -> if a.suppressed then acc + 1 else acc)
        0 t.adjs;
    h_hellos = Metrics.Registry.sum t.hellos_sent;
    h_flaps = t.flaps;
  }
