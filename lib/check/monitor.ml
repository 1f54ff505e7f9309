let cap = 100

type t = {
  net : Dgmc.Protocol.t;
  mutable sweeps : int;
  mutable boundary_pending : bool;
      (* a delay-0 boundary sweep is already in the engine's calendar *)
  seen : (string, unit) Hashtbl.t;  (* dedup of rendered violations *)
  mutable violations : string list;  (* reverse first-seen order *)
  history : (int * Dgmc.Mc_id.t, Dgmc.Timestamp.t) Hashtbl.t;
      (* last observed C per (switch, mc); entries dropped when the MC's
         state is deleted, because a recreated incarnation restarts its
         installed-state basis from zero. *)
}

let record t v =
  let s = Invariant.to_string v in
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
  let n = Dgmc.Protocol.n_switches t.net in
  for id = 0 to n - 1 do
    let sw = Dgmc.Protocol.switch t.net id in
    List.iter (record t) (Invariant.check_switch ~boundary ~id sw);
    let snaps = Dgmc.Switch.snapshots sw in
    (* C-monotonicity against the last sweep, then refresh the history:
       present MCs update their entry, absent ones lose it. *)
    List.iter
      (fun (s : Dgmc.Switch.mc_snapshot) ->
        (match Hashtbl.find_opt t.history (id, s.snap_mc) with
        | Some old_c when not (Dgmc.Timestamp.geq s.snap_c old_c) ->
          record t
            {
              Invariant.switch = Some id;
              mc = Some s.snap_mc;
              law = "C-monotone";
              detail =
                Format.asprintf
                  "installed-state basis regressed from C=%a to C=%a"
                  Dgmc.Timestamp.pp old_c Dgmc.Timestamp.pp s.snap_c;
            }
        | _ -> ());
        Hashtbl.replace t.history (id, s.snap_mc) s.snap_c)
      snaps;
    (* dgmc-analyze: allow iteration-order — per-key membership test; the
       set of removed keys does not depend on enumeration order *)
    Hashtbl.iter
      (fun ((id', mc) as key) _ ->
        if
          id' = id
          && not
               (List.exists
                  (fun (s : Dgmc.Switch.mc_snapshot) ->
                    Dgmc.Mc_id.equal s.snap_mc mc)
                  snaps)
        then Hashtbl.remove t.history key)
      (Hashtbl.copy t.history)
  done

let attach net =
  let t =
    {
      net;
      sweeps = 0;
      boundary_pending = false;
      seen = Hashtbl.create 16;
      violations = [];
      history = Hashtbl.create 64;
    }
  in
  (* Observers fire mid-action (e.g. between the R raise and the E merge
     of one ReceiveLSA step), so the synchronous sweep checks only the
     mid-action-safe laws.  A coalesced delay-0 follow-up sweep lands on
     an engine-event boundary, where the full catalogue — R<=E included
     — applies. *)
  Dgmc.Protocol.add_observer net (fun () ->
      sweep ~boundary:false t;
      if not t.boundary_pending then begin
        t.boundary_pending <- true;
        ignore
          (Sim.Engine.schedule (Dgmc.Protocol.engine net) ~delay:0.0
             (fun () ->
               t.boundary_pending <- false;
               sweep ~boundary:true t))
      end);
  sweep ~boundary:true t;
  t

let sweeps t = t.sweeps

let violations t = List.rev t.violations

let ok t = t.violations = []

let check_terminal t =
  let n = Dgmc.Protocol.n_switches t.net in
  let switches = Array.init n (Dgmc.Protocol.switch t.net) in
  (* Ground truth: the real graph; membership is not tracked by the
     protocol façade per se, so recover it from the agreement the
     terminal laws themselves verify — callers that know the intended
     membership should prefer Explore or Protocol.converged.  Here we
     check the membership-independent terminal laws only. *)
  List.iter (record t)
    (List.filter
       (fun (v : Invariant.violation) ->
         v.law <> "truth-members" && v.law <> "terminals-match"
         && v.law <> "valid-topology")
       (Invariant.check_terminal ~graph:(Dgmc.Protocol.graph t.net) ~truth:[]
          switches));
  (* With the link-health layer on, a quiesced network must not keep a
     damping-suppressed link inside any installed tree. *)
  let suppressed =
    Dgmc.Protocol.health_views t.net
    |> List.concat_map (fun (i, view) ->
           List.filter_map
             (fun (peer, _, s) ->
               if s then Some (min i peer, max i peer) else None)
             view)
    |> List.sort_uniq (fun (a, b) (c, d) ->
           match Int.compare a c with 0 -> Int.compare b d | r -> r)
  in
  List.iter (record t) (Invariant.check_health_terminal ~suppressed switches)

let assert_ok t =
  if not (ok t) then
    failwith
      (Printf.sprintf "invariant monitor: %d violation(s) after %d sweeps:\n%s"
         (List.length (violations t))
         t.sweeps
         (String.concat "\n" (violations t)))
