let cap = 100

type t = {
  net : Dgmc.Protocol.t;
  mutable sweeps : int;
  mutable boundary_pending : bool;
      (* a delay-0 boundary sweep is already in the engine's calendar *)
  seen : (string, unit) Hashtbl.t;  (* dedup of rendered violations *)
  mutable violations : string list;  (* reverse first-seen order *)
  history : (Dgmc.Mc_id.t * Dgmc.Timestamp.t) list array;
      (* per switch, the C of each MC it held at the last sweep: an MC
         absent from a sweep loses its entry, because a recreated
         incarnation restarts its installed-state basis from zero. *)
}

let record t v =
  let s = Dgmc.Terminal.to_string v in
  if (not (Hashtbl.mem t.seen s)) && Hashtbl.length t.seen < cap then begin
    Hashtbl.add t.seen s ();
    t.violations <- s :: t.violations;
    let engine = Dgmc.Protocol.engine t.net in
    let trace = Sim.Engine.trace engine in
    if Sim.Trace.enabled trace then
      ignore
        (Sim.Trace.emit trace ~time:(Sim.Engine.now engine)
           (Note { category = "violation"; message = s }))
  end

let sweep ~boundary t =
  t.sweeps <- t.sweeps + 1;
  for id = 0 to Array.length t.history - 1 do
    let sw = Dgmc.Protocol.switch t.net id in
    List.iter (record t) (Invariant.check_switch ~boundary ~id sw);
    List.iter (record t)
      (Invariant.check_monotone ~id ~before:t.history.(id) sw);
    t.history.(id) <- Invariant.installed_stamps sw
  done

let attach net =
  let t =
    {
      net;
      sweeps = 0;
      boundary_pending = false;
      seen = Hashtbl.create 16;
      violations = [];
      history = Array.make (Dgmc.Protocol.n_switches net) [];
    }
  in
  (* Observers fire mid-action (e.g. between the R raise and the E merge
     of one ReceiveLSA step), so the synchronous sweep checks only the
     mid-action-safe laws.  A coalesced delay-0 follow-up sweep lands on
     an engine-event boundary, where the full catalogue — R<=E included
     — applies. *)
  Dgmc.Protocol.add_observer net (fun _ ->
      sweep ~boundary:false t;
      if not t.boundary_pending then begin
        t.boundary_pending <- true;
        Sim.Engine.schedule (Dgmc.Protocol.engine net) ~delay:0.0
          (fun () ->
            t.boundary_pending <- false;
            sweep ~boundary:true t)
      end);
  sweep ~boundary:true t;
  t

let sweeps t = t.sweeps

let violations t = List.rev t.violations

let ok t = t.violations = []

let check_terminal t =
  List.iter (record t) (Dgmc.Protocol.terminal_violations t.net)
