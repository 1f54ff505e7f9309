type t = {
  self : int;
  engine : Sim.Engine.t;
  lsdb : Lsr.Lsdb.t;
  mcs : Mc_state.t Mc_id.Tbl.t;
  tombstones : Tombstone.t;
  mutable session : int option;
  mutable seq : int;  (** Fresh session ids. *)
  started : Metrics.Registry.counter;
  completed : Metrics.Registry.counter;
  degraded : Metrics.Registry.counter;
  summaries_sent : Metrics.Registry.counter;
  summaries_received : Metrics.Registry.counter;
  deltas_sent : Metrics.Registry.counter;
  deltas_applied : Metrics.Registry.counter;
  stale_deltas : Metrics.Registry.counter;
}

type 'sw procs = {
  get_or_create : 'sw -> Mc_id.t -> Mc_state.t;
  install :
    'sw -> Mc_state.t -> Mc_id.t -> stamp:Timestamp.t -> tree:Mctree.Tree.t ->
    unit;
  start_triggered : 'sw -> Mc_id.t -> Mc_state.t -> unit;
  maybe_delete : 'sw -> Mc_id.t -> Mc_state.t -> unit;
  output : 'sw -> Switch_io.output -> unit;
}

let create ~self ~engine ~lsdb ~mcs ~tombstones =
  let metrics = Sim.Engine.metrics engine in
  let counter = Metrics.Registry.counter metrics ~switch:self in
  { self; engine; lsdb; mcs; tombstones; session = None; seq = 0;
    started = counter "switch.resyncs_started";
    completed = counter "switch.resyncs_completed";
    degraded = counter "switch.resyncs_degraded";
    summaries_sent = counter "switch.resync_summaries_sent";
    summaries_received = counter "switch.resync_summaries_received";
    deltas_sent = counter "switch.resync_deltas_sent";
    deltas_applied = counter "switch.resync_deltas_applied";
    stale_deltas = counter "switch.resync_stale_deltas" }

let copy x ~lsdb ~mcs ~tombstones =
  let fresh = create ~self:x.self ~engine:x.engine ~lsdb ~mcs ~tombstones in
  { fresh with session = x.session; seq = x.seq }

let session x = x.session

let tracef x category fmt =
  Sim.Trace.recordf (Sim.Engine.trace x.engine)
    ~time:(Sim.Engine.now x.engine) ~category fmt

(* Run [f] under a fresh [Resync] event: per MC, or for a session
   message when [mc] is absent. *)
let under_resync x ~peer ?mc f =
  let trace = Sim.Engine.trace x.engine in
  let rid =
    if not (Sim.Trace.enabled trace) then -1
    else
      let mc = match mc with Some mc -> Mc_id.to_string mc | None -> "" in
      Sim.Trace.emit trace ~time:(Sim.Engine.now x.engine)
        (Resync { switch = x.self; peer; mc })
  in
  let saved = Sim.Trace.set_context trace rid in
  match f () with
  | v ->
    Sim.Trace.restore_context trace saved;
    v
  | exception e ->
    Sim.Trace.restore_context trace saved;
    raise e

(* Re-propose for [mc] under a [Resync] event: raise the flag and start
   a triggered computation. *)
let repropose procs sw x ~peer mc (st : Mc_state.t) =
  under_resync x ~peer ~mc (fun () ->
      st.flag <- true;
      procs.start_triggered sw mc st)

let revalidate procs sw x ~peer =
  Revalidate.installs (Lsr.Lsdb.graph x.lsdb) x.mcs
    (repropose procs sw x ~peer)

(* A per-link max of versions (D-GMC assumes the unicast databases
   converge, paper §1); adopted events are re-flooded for the switches
   BEHIND this one.  Whether the image changed. *)
let merge_links procs sw x ~source entries =
  let changed = ref false in
  List.iter
    (fun (ev : Lsr.Lsdb.link_event) ->
      if ev.version > Lsr.Lsdb.version x.lsdb ~u:ev.u ~v:ev.v then begin
        Lsr.Lsdb.apply x.lsdb ev;
        changed := true;
        tracef x "resync" "sw%d adopts %a from sw%d" x.self
          Lsr.Lsdb.pp_link_event ev source;
        procs.output sw (Switch_io.Flood (Link ev))
      end)
    entries;
  !changed

(* Everything this switch can export, sorted by MC: its live states,
   then its tombstones. *)
let exports x =
  Mc_id.Tbl.fold
    (fun mc (st : Mc_state.t) acc ->
      { Resync.exp_mc = mc; exp_r = Timestamp.freeze st.r;
        exp_e = Timestamp.freeze st.e; exp_c = st.c; exp_members = st.members;
        exp_membership_seen = Timestamp.freeze st.membership_seen;
        exp_topology = st.topology }
      :: acc)
    x.mcs []
  |> Tombstone.exports x.tombstones ~live:x.mcs
  |> List.sort (fun a b -> Mc_id.compare a.Resync.exp_mc b.Resync.exp_mc)

(* The one adoption rule: merge [E], and when the export's [R] teaches
   something new, run [adopt st k], where [k] adopts the rest and sets
   the recompute flag.  The pull wraps [k] in its trace context and
   re-proposes at once; a delta defers re-proposal to [finish]. *)
let apply_export procs sw ~adopt (e : Resync.mc_export) =
  let st = procs.get_or_create sw e.exp_mc in
  let merged_r = Timestamp.merge st.r e.exp_r in
  st.e <- Timestamp.merge_owned st.e e.exp_e;
  if not (Timestamp.equal merged_r st.r) then
    adopt st (fun () ->
        (* R first, so that observers fired below never see a cursor
           ahead of it.  The export's entry for source [s] reflects all
           of [s]'s events up to its cursor's component [s]. *)
        st.r <- merged_r;
        Timestamp.iter_nonzero
          (fun src peer_seen ->
            if peer_seen > Timestamp.get st.membership_seen src then begin
              st.membership_seen <-
                Timestamp.raise_owned st.membership_seen src peer_seen;
              (match Member.role e.exp_members src with
              | Some role -> st.members <- Member.join st.members src role
              | None -> st.members <- Member.leave st.members src);
              procs.output sw Switch_io.Changed
            end)
          e.exp_membership_seen;
        if
          Tiebreak.supersedes ~stamp:e.exp_c ~tree:e.exp_topology
            ~held_stamp:st.c ~held_tree:st.topology
        then procs.install sw st e.exp_mc ~stamp:e.exp_c ~tree:e.exp_topology;
        st.flag <- true)

(* ------------------------------------------------------------------ *)
(* The link-up pull *)

let pull procs sw x ~peer =
  let image_changed =
    merge_links procs sw x ~source:peer.self (Lsr.Lsdb.entries peer.lsdb)
  in
  (* The peer's tombstones too: a leave that emptied the MC there while
     the link was down reaches this side of it. *)
  List.iter
    (fun (e : Resync.mc_export) ->
      let mc = e.exp_mc in
      apply_export procs sw e ~adopt:(fun st k ->
          under_resync x ~peer:peer.self ~mc (fun () ->
              k ();
              (* Reflood even when R = C: the switches BEHIND this one
                 would otherwise never learn what it adopted (the peer's
                 flood died at the severed link).  Up-to-date receivers
                 ignore the extra proposal. *)
              if Revalidate.may_repropose st then
                procs.start_triggered sw mc st)))
    (exports peer);
  (* The peer may never have been a member of a contradicted MC. *)
  if image_changed then revalidate procs sw x ~peer:peer.self

(* ------------------------------------------------------------------ *)
(* Crash recovery *)

let summarise (e : Resync.mc_export) =
  { Resync.sum_mc = e.exp_mc; sum_r = e.exp_r; sum_e = e.exp_e;
    sum_c = e.exp_c; sum_tree_fp = Mctree.Tree.fingerprint e.exp_topology }

(* The session [s] ends with its delta applied.  Its exports set the
   recompute flag but did not trigger (a later export could supersede);
   installs may also contradict the merged image. *)
let finish procs sw x s =
  x.session <- None;
  tracef x "resync" "sw%d session %d finished (delta)" x.self s;
  Metrics.Registry.bump x.completed;
  List.iter
    (fun mc ->
      match Mc_id.Tbl.find_opt x.mcs mc with
      | Some st ->
        if
          Revalidate.may_repropose st
          && (st.flag || Revalidate.contradicted (Lsr.Lsdb.graph x.lsdb) st)
        then repropose procs sw x ~peer:x.self mc st;
        procs.maybe_delete sw mc st
      | None -> ())
    (Mc_id.sorted x.mcs)

let open_session procs sw x () =
  (* A second crash window can close while an earlier session is still in
     flight; the fresh recovery supersedes it. *)
  (match x.session with
  | Some s ->
    x.session <- None;
    tracef x "resync" "sw%d restarts resync (session %d superseded)" x.self s
  | None -> ());
  x.seq <- x.seq + 1;
  let sid = x.seq in
  Metrics.Registry.bump x.started;
  (* [Net.Graph.neighbors] yields live neighbors only — by this switch's
     own (possibly stale) image, which is exactly the set it can try. *)
  match List.map fst (Net.Graph.neighbors (Lsr.Lsdb.graph x.lsdb) x.self) with
  | [] ->
    tracef x "resync" "sw%d recovers with no live neighbors (degraded)" x.self;
    Metrics.Registry.bump x.degraded
  | neighbors ->
    x.session <- Some sid;
    let summary =
      Resync.Summary
        { session = sid; origin = x.self; links = Lsr.Lsdb.entries x.lsdb;
          mcs = List.map summarise (exports x) }
    in
    List.iter
      (fun nb ->
        under_resync x ~peer:nb (fun () ->
            Metrics.Registry.bump x.summaries_sent;
            procs.output sw (Switch_io.Send { peer = nb; msg = summary })))
      neighbors

(* Stateless delta responder: ship link entries strictly newer than the
   summary's and full exports for every MC where this switch knows
   events the summary's R does not cover (or holds a different
   same-stamp tree). *)
let answer_summary procs sw x ~session ~peer
    (sum_links : Lsr.Lsdb.link_event list) (sum_mcs : Resync.mc_summary list) =
  let summarised (ev : Lsr.Lsdb.link_event) (l : Lsr.Lsdb.link_event) =
    l.u = ev.u && l.v = ev.v && l.version >= ev.version
  in
  let links =
    List.filter
      (fun ev -> not (List.exists (summarised ev) sum_links))
      (Lsr.Lsdb.entries x.lsdb)
  in
  let summary_of mc =
    List.find_opt (fun s -> Mc_id.equal s.Resync.sum_mc mc) sum_mcs
  in
  let behind (e : Resync.mc_export) =
    match summary_of e.exp_mc with
    | None -> true
    | Some s ->
      (not (Timestamp.geq s.sum_r e.exp_r))
      || (not (Timestamp.geq s.sum_e e.exp_e))
      (* A tombstone compares only R and E. *)
      || (Mc_id.Tbl.mem x.mcs e.exp_mc
         && (Timestamp.gt e.exp_c s.sum_c
            || (Timestamp.equal e.exp_c s.sum_c
               && not
                    (String.equal s.sum_tree_fp
                       (Mctree.Tree.fingerprint e.exp_topology)))))
  in
  let mcs = List.filter behind (exports x) in
  (* Reply even when empty: any delta completes the recoverer's session. *)
  Metrics.Registry.bump x.deltas_sent;
  procs.output sw
    (Switch_io.Send
       { peer; msg = Resync.Delta { session; origin = x.self; links; mcs } })

let receive_msg procs sw x msg =
  match msg with
  | Resync.Summary { session; origin = peer; links; mcs } ->
    Metrics.Registry.bump x.summaries_received;
    under_resync x ~peer (fun () ->
        (* The recoverer's own incident links may have changed during its
           outage, and their floods died with it: adopt (and re-flood)
           anything newer its summary proves, then revalidate installs
           against the merged image — the responder is NOT suspended. *)
        if merge_links procs sw x ~source:peer links then
          revalidate procs sw x ~peer;
        answer_summary procs sw x ~session ~peer links mcs)
  | Resync.Delta { session; origin = peer; links; mcs } -> (
    match x.session with
    | Some s when s = session ->
      Metrics.Registry.bump x.deltas_applied;
      under_resync x ~peer (fun () ->
          ignore (merge_links procs sw x ~source:peer links);
          List.iter (apply_export procs sw ~adopt:(fun _ k -> k ())) mcs);
      finish procs sw x s
    | Some _ | None ->
      (* From a superseded session, which may predate a second outage,
         or after another neighbor's delta finished this one: all it
         carries was applied already or will be re-learned. *)
      tracef x "resync" "sw%d drops stale resync delta from sw%d" x.self peer;
      Metrics.Registry.bump x.stale_deltas)

(* Both crash-recovery entry points run in the [dgmc.resync] phase. *)
let in_phase f procs sw x arg =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "dgmc.resync";
  match f procs sw x arg with
  | () -> Metrics.Phase.leave ph
  | exception e ->
    Metrics.Phase.leave ph;
    raise e

let recover procs sw x = in_phase open_session procs sw x ()

let receive procs sw x msg = in_phase receive_msg procs sw x msg
