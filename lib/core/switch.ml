type stats = {
  computations : int;
  computations_withdrawn : int;
  proposals_flooded : int;
  proposals_accepted : int;
}

(* Everything a switch counts, each fact once: one handle per [switch.*]
   counter of the engine's registry, labelled with the switch's id. *)
type counts = {
  computations : Metrics.Registry.counter;
  computations_withdrawn : Metrics.Registry.counter;
  proposals_flooded : Metrics.Registry.counter;
  proposals_accepted : Metrics.Registry.counter;
  event_lsas_flooded : Metrics.Registry.counter;
  installs : Metrics.Registry.counter;
  lsas_received : Metrics.Registry.counter;
}

let counts engine id =
  let metrics = Sim.Engine.metrics engine and switch = Some id in
  let counter name = Metrics.Registry.counter metrics ?switch name in
  {
    computations = counter "switch.computations";
    computations_withdrawn = counter "switch.computations_withdrawn";
    proposals_flooded = counter "switch.proposals_flooded";
    proposals_accepted = counter "switch.proposals_accepted";
    event_lsas_flooded = counter "switch.event_lsas_flooded";
    installs = counter "switch.installs";
    lsas_received = counter "switch.lsas_received";
  }

include Switch_io

type t = {
  id : int;
  n : int;
  config : Config.t;
  engine : Sim.Engine.t;
  lsdb : Lsr.Lsdb.t;
  mcs : Mc_state.t Mc_id.Tbl.t;
  tombstones : Tombstone.t;
  exchange : Exchange.t;  (** Over [lsdb], [mcs] and [tombstones]. *)
  mutable sink : output -> unit;
  mutable compute_seq : int;  (** Fresh computation ids. *)
  counts : counts;
  trace : Sim.Trace.t;
}

let unconnected _ = invalid_arg "Switch: not connected"

let create ~id ~n ~config ~engine ~boot =
  let lsdb = Lsr.Lsdb.create boot
  and mcs = Mc_id.Tbl.create 8
  and tombstones = Mc_id.Tbl.create 8 in
  {
    id;
    n;
    config;
    engine;
    lsdb;
    mcs;
    tombstones;
    exchange = Exchange.create ~self:id ~engine ~lsdb ~mcs ~tombstones;
    sink = unconnected;
    compute_seq = 0;
    counts = counts engine id;
    trace = Sim.Engine.trace engine;
  }

let id t = t.id

let stats t : stats =
  let c = t.counts and count = Metrics.Registry.count in
  {
    computations = count c.computations;
    computations_withdrawn = count c.computations_withdrawn;
    proposals_flooded = count c.proposals_flooded;
    proposals_accepted = count c.proposals_accepted;
  }

let image t = Lsr.Lsdb.graph t.lsdb

let connect t sink = t.sink <- sink

(* Everything mutable is copied: the state tables keep their layout, so
   the copy iterates its MCs in the same order as [t].  The owned stamps
   are shared by both sides, so they are frozen first: the next in-place
   update on either side copies. *)
let copy t =
  let mcs = Mc_id.Tbl.copy t.mcs in
  Mc_id.Tbl.filter_map_inplace
    (fun _ (st : Mc_state.t) ->
      Some
        {
          st with
          r = Timestamp.freeze st.r;
          e = Timestamp.freeze st.e;
          membership_seen = Timestamp.freeze st.membership_seen;
          mailbox = Queue.copy st.mailbox;
        })
    mcs;
  let lsdb = Lsr.Lsdb.copy t.lsdb
  and tombstones = Mc_id.Tbl.copy t.tombstones in
  {
    t with
    lsdb;
    mcs;
    tombstones;
    exchange = Exchange.copy t.exchange ~lsdb ~mcs ~tombstones;
    sink = unconnected;
    counts = counts t.engine t.id;
  }

(* [tracef] is for cold paths; a hot one builds its message with a
   one-allocation renderer under a [traced t] guard and records it with
   [note]. *)
let tracef t category fmt =
  Sim.Trace.recordf t.trace ~time:(Sim.Engine.now t.engine) ~category fmt

let note t category message =
  Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category message

let traced t = Sim.Trace.enabled t.trace

(* Emit a structured event; -1 when tracing is off.  Callers build the
   payload inside a [traced t] guard so the hot path stays one branch. *)
let emit t ?parent event =
  Sim.Trace.emit t.trace ~time:(Sim.Engine.now t.engine) ?parent event

(* ------------------------------------------------------------------ *)
(* State table *)

let get_state t mc = Mc_id.Tbl.find_opt t.mcs mc

let mc_ids t = Mc_id.sorted t.mcs

let get_or_create t mc =
  match Mc_id.Tbl.find_opt t.mcs mc with
  | Some st -> st
  | None ->
    let st = Mc_state.create ~n:t.n in
    Tombstone.resume t.tombstones mc st;
    Mc_id.Tbl.replace t.mcs mc st;
    st

(* A nested handler may delete (and recreate) the state its caller
   holds; physical equality identifies the incarnation. *)
let state_current t mc st =
  match Mc_id.Tbl.find_opt t.mcs mc with Some s -> s == st | None -> false

(* MC destruction (paper §3.4): drop the state once the member list is
   empty — guarded so that no promised LSAs, queued LSAs or in-flight
   computations are abandoned, which keeps the timestamp accounting of
   the remaining switches sound.  The emptiness test comes first: it
   settles most calls without the table lookup. *)
let maybe_delete t mc (st : Mc_state.t) =
  if
    Member.is_empty st.members
    && state_current t mc st
    && Timestamp.geq st.r st.e
    && Queue.is_empty st.mailbox
    && st.event_computations = []
    && st.triggered = None
  then begin
    tracef t "mc-delete" "%a deleted" Mc_id.pp mc;
    Tombstone.capture t.tombstones mc st;
    Mc_id.Tbl.remove t.mcs mc;
    (* Deletion is a state change observers care about (e.g. hierarchy
       leaders watching the logical level). *)
    t.sink Changed
  end

(* ------------------------------------------------------------------ *)
(* Flooding and installation *)

let flood_lsa t mc ~event ~proposal ?members ~stamp () =
  (match proposal with
  | Some _ -> Metrics.Registry.bump t.counts.proposals_flooded
  | None -> Metrics.Registry.bump t.counts.event_lsas_flooded);
  t.sink
    (Flood
       (Mc
          (Mc_lsa.make ~src:t.id ~event ~mc ?proposal ?members
             ~stamp:(Timestamp.freeze stamp) ())))

let compute_proposal t (st : Mc_state.t) (mc : Mc_id.t) =
  Compute.topology t.config mc.kind (Lsr.Lsdb.graph t.lsdb) st.members
    ~self:t.id ~current:(Some st.topology)

(* Start a computation for either entity (Figure 4 lines 3-5, Figure 5
   lines 20-21): the proposal is fixed by the inputs now, and its
   completion, when the driver fires the [Compute] timer [Tc] later,
   re-checks it against the live R.  [event] is [No_event] for the
   triggered entity. *)
let launch t mc (st : Mc_state.t) ~event =
  let old_r = Timestamp.freeze st.r in
  let proposal = compute_proposal t st mc in
  let trace_id =
    if traced t then
      emit t
        (Compute_started
           {
             switch = t.id;
             mc = Mc_id.to_string mc;
             trigger =
               (match event with
               | Mc_lsa.No_event -> "receive-lsa"
               | ev -> "event:" ^ Mc_lsa.event_to_string ev);
             r = Timestamp.to_sparse old_r;
           })
    else -1
  in
  t.compute_seq <- t.compute_seq + 1;
  let id = t.compute_seq in
  t.sink (Start { timer = Compute { switch = t.id; mc; id }; delay = t.config.tc });
  { Mc_state.id; old_r; event; proposal; trace_id }

(* Count a completed computation, and whether it was withdrawn stale. *)
let count_completion t ~withdrawn =
  Metrics.Registry.bump t.counts.computations;
  if withdrawn then Metrics.Registry.bump t.counts.computations_withdrawn

(* [Proposal_made] for a completed computation; its id is the context
   of what the completion floods. *)
let proposal_made t mc (comp : Mc_state.computation) ~withdrawn =
  if traced t then
    emit t ~parent:comp.trace_id
      (Proposal_made
         {
           switch = t.id;
           mc = Mc_id.to_string mc;
           withdrawn;
           stamp = Timestamp.to_sparse comp.old_r;
         })
  else -1

(* ------------------------------------------------------------------ *)
(* EventHandler (Figure 4) *)

let remove_computation (st : Mc_state.t) comp =
  st.event_computations <- List.filter (fun c -> c != comp) st.event_computations

let rec install t (st : Mc_state.t) mc ~stamp ~tree =
  st.c <- stamp;
  st.topology <- tree;
  Metrics.Registry.bump t.counts.installs;
  if traced t then
    ignore
      (emit t
         (Topology_installed
            {
              switch = t.id;
              mc = Mc_id.to_string mc;
              r = Timestamp.to_sparse st.r;
              e = Timestamp.to_sparse st.e;
              c = Timestamp.to_sparse stamp;
              members = Member.to_string st.members;
              tree = Mctree.Tree.to_string tree;
            }));
  t.sink Changed;
  if Redetect.dead_incident_link ~self:t.id (image t) tree then begin
    tracef t "detect" "sw%d installed a tree over a dead incident link" t.id;
    event_handler t mc Mc_lsa.Link
  end

and event_handler t mc event =
  let st = get_or_create t mc in
  (* The switch's own membership change applies immediately; received
     LSAs apply it at the other switches (Figure 5 line 8). *)
  (match event with
  | Mc_lsa.Join role ->
    st.members <- Member.join st.members t.id role;
    t.sink Changed
  | Mc_lsa.Leave ->
    st.members <- Member.leave st.members t.id;
    t.sink Changed
  | Mc_lsa.Link | Mc_lsa.No_event -> ());
  (* Line 1: R[x]++, E[x]++ — numbering is continuous across state
     incarnations because recreation resumes from the tombstone. *)
  st.r <- Timestamp.bump_owned st.r t.id;
  st.e <- Timestamp.bump_owned st.e t.id;
  st.membership_seen <-
    Timestamp.raise_owned st.membership_seen t.id (Timestamp.get st.r t.id);
  if Timestamp.geq st.r st.e then
    (* Lines 3-5: no outstanding LSAs — compute a proposal. *)
    st.event_computations <-
      st.event_computations @ [ launch t mc st ~event ]
  else begin
    (* Lines 15-17: outstanding LSAs — flood the bare event and defer the
       proposal decision to ReceiveLSA. *)
    flood_lsa t mc ~event ~proposal:None ~stamp:st.r ();
    st.flag <- true
  end;
  maybe_delete t mc st

(* Lines 6-14, run at computation completion. *)
and event_completion t mc (st : Mc_state.t) (comp : Mc_state.computation) =
  remove_computation st comp;
  let withdrawn =
    not
      (Timestamp.equal comp.old_r st.r
      (* Fault injection: treat a stale result as valid — the protocol
         bug the model checker exists to catch. *)
      || Config.injects t.config Config.Skip_stale_withdrawal)
  in
  count_completion t ~withdrawn;
  let saved =
    Sim.Trace.set_context t.trace (proposal_made t mc comp ~withdrawn)
  in
  (match
     if withdrawn then begin
       (* Lines 11-13: R advanced during the computation — withdraw,
          but the event itself must still be advertised. *)
       flood_lsa t mc ~event:comp.event ~proposal:None ~stamp:comp.old_r ();
       st.flag <- true
     end
     else begin
       (* Lines 7-10: proposal still valid — flood it and adopt it.
          The member snapshot corresponds to [old_r] (= R, no events
          arrived during the computation). *)
       flood_lsa t mc ~event:comp.event ~proposal:(Some comp.proposal)
         ~members:st.members ~stamp:comp.old_r ();
       st.flag <- false;
       install t st mc ~stamp:comp.old_r ~tree:comp.proposal
     end
   with
  | () -> Sim.Trace.restore_context t.trace saved
  | exception e ->
    Sim.Trace.restore_context t.trace saved;
    raise e);
  maybe_delete t mc st

(* ------------------------------------------------------------------ *)
(* ReceiveLSA (Figure 5) *)

(* The invocation's candidate is the accepted LSA itself, whose
   [proposal] and [stamp] it holds; [no_candidate], which carries no
   proposal, stands for none.  So accepting a proposal allocates
   nothing. *)
let no_candidate =
  Mc_lsa.make ~src:(-1) ~event:Mc_lsa.No_event
    ~mc:(Mc_id.make Mc_id.Symmetric (-1))
    ~stamp:(Timestamp.zero 1) ()

(* Lines 4-17: consume one LSA; returns the invocation's candidate,
   [candidate] or [lsa]. *)
let process_lsa t (st : Mc_state.t) (lsa : Mc_lsa.t) candidate =
  let s = lsa.src in
  (* Whether T >= E, decided once: lines 7 and 8 leave E alone, and
     T >= max(E, T) iff T >= E, so it is also the check against the E
     that line 10 makes. *)
  let current = Timestamp.geq lsa.stamp st.e in
  if Mc_lsa.is_event lsa then begin
    (* Line 7: count the event.  The stamp's own component carries the
       event's index at its source, so "raise to" rather than increment —
       equivalent on in-order floods, and robust when knowledge arrived
       in aggregated form (post-partition resynchronisation). *)
    let seq = Timestamp.get lsa.stamp s in
    st.r <- Timestamp.raise_owned st.r s seq;
    (* Line 8: apply membership changes.  T[S] sequences the events of
       switch S, so a reordered stale membership LSA is counted but not
       applied over a newer one. *)
    if Mc_lsa.is_membership_event lsa then begin
      if seq > Timestamp.get st.membership_seen s then begin
        st.membership_seen <- Timestamp.raise_owned st.membership_seen s seq;
        if traced t then
          note t "member"
            (Mc_lsa.applies_note ~switch:t.id ~src:s ~seq lsa.event);
        (match lsa.event with
        | Mc_lsa.Join role -> st.members <- Member.join st.members s role
        | Mc_lsa.Leave -> st.members <- Member.leave st.members s
        | Mc_lsa.Link | Mc_lsa.No_event -> ());
        t.sink Changed
      end
      else if traced t then
        note t "member"
          (Mc_lsa.skips_note ~switch:t.id ~src:s ~seq
             ~seen:(Timestamp.get st.membership_seen s)
             lsa.event)
    end
  end;
  (* Line 10: learn what to expect. *)
  st.e <- Timestamp.merge_owned_known st.e lsa.stamp ~covered:current;
  if current then
    Member_snapshot.adopt ~sink:t.sink t.engine ~self:t.id st lsa;
  (* Lines 11-17: accept an up-to-date proposal (the best one by the
     tie-break), or detect that the sender did not know all our local
     events. *)
  match lsa.proposal with
  | Some tree when current ->
    st.flag <- false;
    let replaces =
      match candidate.Mc_lsa.proposal with
      | None -> true
      | Some held_tree ->
        Tiebreak.supersedes ~stamp:lsa.stamp ~tree
          ~held_stamp:candidate.stamp ~held_tree
    in
    if replaces then lsa else candidate
  | Some _ | None ->
    (* The sender's stamp is behind our own event count: it computed (or
       refrained) without knowing our events, so we owe the network a
       proposal.  (Injecting [Skip_stale_sender_flag] suppresses this —
       the fault the model checker demonstrates against.) *)
    if
      (not (Config.injects t.config Config.Skip_stale_sender_flag))
      && Timestamp.get st.r t.id > Timestamp.get lsa.stamp t.id
    then st.flag <- true;
    candidate

(* Lines 3-18: drain the mailbox into the invocation's candidate. *)
let rec drain t (st : Mc_state.t) candidate =
  if Queue.is_empty st.mailbox then candidate
  else drain t st (process_lsa t st (Queue.pop st.mailbox) candidate)

(* Lines 1-2: the candidate proposal is local to one invocation. *)
let rec run_invocation t mc (st : Mc_state.t) =
  decide t mc st (drain t st no_candidate)

(* Line 19 on, once the mailbox is drained: decide whether to compute. *)
and decide t mc (st : Mc_state.t) (candidate : Mc_lsa.t) =
  if st.flag && Timestamp.geq st.r st.e && Timestamp.gt st.r st.c then
    start_triggered t mc st
  else begin
    (* Lines 32-35: adopt an accepted proposal.  A candidate whose stamp
       only ties the installed topology's C replaces it solely when it
       wins the deterministic tie-break. *)
    match candidate.proposal with
    | Some tree ->
      let stamp = candidate.stamp in
      if
        Tiebreak.supersedes ~stamp ~tree ~held_stamp:st.c
          ~held_tree:st.topology
      then begin
        Metrics.Registry.bump t.counts.proposals_accepted;
        install t st mc ~stamp ~tree
      end
    | None -> ()
  end;
  maybe_delete t mc st

and start_triggered t mc (st : Mc_state.t) =
  st.triggered <- Some (launch t mc st ~event:Mc_lsa.No_event)

(* Lines 22-31, run at computation completion. *)
and triggered_completion t mc (st : Mc_state.t) (comp : Mc_state.computation) =
  st.triggered <- None;
  let withdrawn =
    not (Queue.is_empty st.mailbox && Timestamp.equal comp.old_r st.r)
  in
  count_completion t ~withdrawn;
  (* Lines 23-27: still up to date — flood, install, expect no more.
     Lines 28-30: obsolete — withdraw silently: the computation is
     recorded, but it floods nothing, so it is no context. *)
  if withdrawn then ignore (proposal_made t mc comp ~withdrawn:true)
  else begin
    let saved =
      Sim.Trace.set_context t.trace (proposal_made t mc comp ~withdrawn:false)
    in
    match
      flood_lsa t mc ~event:Mc_lsa.No_event ~proposal:(Some comp.proposal)
        ~members:st.members ~stamp:comp.old_r ();
      st.e <- comp.old_r;
      st.flag <- false;
      install t st mc ~stamp:comp.old_r ~tree:comp.proposal
    with
    | () -> Sim.Trace.restore_context t.trace saved
    | exception e ->
      Sim.Trace.restore_context t.trace saved;
      raise e
  end;
  if not (Queue.is_empty st.mailbox) then run_invocation t mc st
  else maybe_delete t mc st

(* ------------------------------------------------------------------ *)
(* Database exchanges (extension; see exchange.mli) *)

let procs =
  { Exchange.get_or_create; install; start_triggered; maybe_delete;
    output = (fun t o -> t.sink o) }

let resync t ~peer = Exchange.pull procs t t.exchange ~peer:peer.exchange

let begin_resync t = Exchange.recover procs t t.exchange

let resync_state t = Exchange.session t.exchange

(* ------------------------------------------------------------------ *)
(* Public entry points *)

let host_join t mc role = event_handler t mc (Mc_lsa.Join role)

let host_leave t mc = event_handler t mc Mc_lsa.Leave

let detect t (ev : Lsr.Lsdb.link_event) =
  Lsr.Lsdb.apply t.lsdb ev;
  if not ev.up then begin
    let affected =
      Mc_id.Tbl.fold
        (fun mc (st : Mc_state.t) acc ->
          if Mctree.Tree.mem_edge st.topology ev.u ev.v then mc :: acc
          else acc)
        t.mcs []
    in
    (* One MC LSA per affected connection (paper Figure 2). *)
    List.iter (fun mc -> event_handler t mc Mc_lsa.Link) affected
  end;
  t.sink (Flood (Link ev))

let detect_link switches (ev : Lsr.Lsdb.link_event) =
  detect switches.(max ev.u ev.v) ev;
  detect switches.(min ev.u ev.v) ev

(* ReceiveLSA is activated whenever LSAs are present — unless its single
   process is mid-computation, in which case the mailbox accumulates
   until the completion handler re-invokes it.  Only this push fills the
   mailbox, and the completion handler drains it as it clears
   [triggered], so an idle process always has an empty mailbox and
   consumes the LSA directly. *)
let activate t mc (st : Mc_state.t) lsa =
  match st.triggered with
  | Some _ -> Queue.push lsa st.mailbox
  | None -> decide t mc st (process_lsa t st lsa no_candidate)

let receive t lsa =
  Metrics.Registry.bump t.counts.lsas_received;
  let mc = lsa.Mc_lsa.mc in
  match Mc_id.Tbl.find t.mcs mc with
  | st -> activate t mc st lsa
  | exception Not_found -> (
    if Mc_lsa.is_event lsa then activate t mc (get_or_create t mc) lsa
    else
      (* A bare proposal for an MC this switch holds no state for: the MC
         is already destroyed locally; ignore rather than resurrect. *)
      Tombstone.absorb t.tombstones lsa)

let deliver t = function
  | Mc lsa -> receive t lsa
  | Link ev -> Lsr.Lsdb.apply t.lsdb ev
  | Resync msg -> Exchange.receive procs t t.exchange msg

(* A computation is found by its id: completing one removes it, so a
   second firing of its timer finds nothing. *)
let fire t = function
  | Compute { mc; id; _ } -> (
    match get_state t mc with
    | None -> ()
    | Some st -> (
      let is_it (c : Mc_state.computation) = c.id = id in
      match (List.find_opt is_it st.event_computations, st.triggered) with
      | Some comp, _ -> event_completion t mc st comp
      | None, Some comp when is_it comp -> triggered_completion t mc st comp
      | None, (Some _ | None) -> ()))

(* ------------------------------------------------------------------ *)
(* Introspection *)

let lsdb_entries t = Lsr.Lsdb.entries t.lsdb

let members t mc =
  Option.map (fun (st : Mc_state.t) -> st.members) (get_state t mc)

let topology t mc =
  Option.map (fun (st : Mc_state.t) -> st.topology) (get_state t mc)

let stamps t mc =
  Option.map
    (fun (st : Mc_state.t) ->
      (Timestamp.freeze st.r, Timestamp.freeze st.e, st.c))
    (get_state t mc)

let proposal_flag t mc =
  match get_state t mc with Some st -> st.flag | None -> false

let tombstones t =
  Mc_id.Tbl.fold (fun mc stamps acc -> (mc, stamps) :: acc) t.tombstones []
  |> List.sort (fun (a, _) (b, _) -> Mc_id.compare a b)

let quiescent t mc =
  match get_state t mc with
  | None -> true
  | Some st ->
    Queue.is_empty st.mailbox
    && st.event_computations = []
    && st.triggered = None

type mc_snapshot = {
  snap_mc : Mc_id.t;
  snap_r : Timestamp.t;
  snap_e : Timestamp.t;
  snap_c : Timestamp.t;
  snap_flag : bool;
  snap_members : Member.t;
  snap_topology : Mctree.Tree.t;
  snap_membership_seen : Timestamp.t;
  snap_mailbox : Mc_lsa.t list;
  snap_computations : Timestamp.t list;
  snap_triggered : Timestamp.t option;
}

let snapshots t =
  List.map
    (fun mc ->
      let st = Mc_id.Tbl.find t.mcs mc in
      {
        snap_mc = mc;
        snap_r = Timestamp.freeze st.r;
        snap_e = Timestamp.freeze st.e;
        snap_c = st.c;
        snap_flag = st.flag;
        snap_members = st.members;
        snap_topology = st.topology;
        snap_membership_seen = Timestamp.freeze st.membership_seen;
        snap_mailbox = List.of_seq (Queue.to_seq st.mailbox);
        snap_computations =
          List.map (fun (c : Mc_state.computation) -> c.old_r) st.event_computations;
        snap_triggered =
          Option.map (fun (c : Mc_state.computation) -> c.old_r) st.triggered;
      })
    (mc_ids t)
