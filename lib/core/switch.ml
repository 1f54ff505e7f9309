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
  resyncs_started : Metrics.Registry.counter;
  resyncs_completed : Metrics.Registry.counter;
  resyncs_degraded : Metrics.Registry.counter;
  resync_summaries_sent : Metrics.Registry.counter;
  resync_summaries_received : Metrics.Registry.counter;
  resync_deltas_sent : Metrics.Registry.counter;
  resync_deltas_applied : Metrics.Registry.counter;
  resync_stale_deltas : Metrics.Registry.counter;
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
    resyncs_started = counter "switch.resyncs_started";
    resyncs_completed = counter "switch.resyncs_completed";
    resyncs_degraded = counter "switch.resyncs_degraded";
    resync_summaries_sent = counter "switch.resync_summaries_sent";
    resync_summaries_received = counter "switch.resync_summaries_received";
    resync_deltas_sent = counter "switch.resync_deltas_sent";
    resync_deltas_applied = counter "switch.resync_deltas_applied";
    resync_stale_deltas = counter "switch.resync_stale_deltas";
  }

type payload =
  | Mc of Mc_lsa.t
  | Link of Lsr.Lsdb.link_event
  | Resync of Resync.msg

type timer = Compute of { mc : Mc_id.t; id : int }

type output =
  | Flood of payload
  | Send of { peer : int; msg : Resync.msg }
  | Changed
  | Start of { timer : timer; delay : float }

type t = {
  id : int;
  n : int;
  config : Config.t;
  engine : Sim.Engine.t;
  lsdb : Lsr.Lsdb.t;
  mcs : Mc_state.t Mc_id.Tbl.t;
  tombstones : (Timestamp.t * Timestamp.t * Timestamp.t) Mc_id.Tbl.t;
      (** (R, E, membership_seen) captured when an MC's state is deleted.
          Deletion frees the member list and topology, but event
          numbering must survive: a leave racing with a remote join can
          delete state while the MC lives on, and if a recreated state
          restarted its counters from zero, its events would read as
          stale (and merged E promises could never be met).  Recreation
          resumes from the tombstone. *)
  mutable sink : output -> unit;
  mutable resync_session : int option;
      (** The in-flight crash-recovery resynchronisation exchange (see
          [begin_resync]), by the session id its deltas echo (stale
          deltas are ignored): open until a delta echoing it is applied,
          or a fresh recovery supersedes it. *)
  mutable resync_seq : int;  (** Fresh session ids. *)
  mutable compute_seq : int;  (** Fresh computation ids. *)
  counts : counts;
  trace : Sim.Trace.t;
}

let unconnected _ = invalid_arg "Switch: not connected"

let create ~id ~n ~config ~engine ~boot () =
  {
    id;
    n;
    config;
    engine;
    lsdb = Lsr.Lsdb.create boot;
    mcs = Mc_id.Tbl.create 8;
    tombstones = Mc_id.Tbl.create 8;
    sink = unconnected;
    resync_session = None;
    resync_seq = 0;
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
  {
    t with
    lsdb = Lsr.Lsdb.copy t.lsdb;
    mcs;
    tombstones = Mc_id.Tbl.copy t.tombstones;
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

let mc_ids t =
  Mc_id.Tbl.fold (fun mc _ acc -> mc :: acc) t.mcs [] |> List.sort Mc_id.compare

let get_or_create t mc =
  match Mc_id.Tbl.find_opt t.mcs mc with
  | Some st -> st
  | None ->
    let st = Mc_state.create ~n:t.n in
    (* Resume event numbering where the previous incarnation left off. *)
    (match Mc_id.Tbl.find_opt t.tombstones mc with
    | Some (r, e, seen) ->
      st.r <- r;
      st.e <- Timestamp.merge e r;
      st.membership_seen <- seen
    | None -> ());
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
    Mc_id.Tbl.replace t.tombstones mc
      ( Timestamp.freeze st.r,
        Timestamp.freeze st.e,
        Timestamp.freeze st.membership_seen );
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

(* A proposal computed before a link failure can be installed after it:
   the sender never saw the failure, and the usual detection (an incident
   link goes down while the INSTALLED topology uses it) fires too early
   to notice.  A switch knows the state of its own incident links
   authoritatively, so installation is a second detection point; every
   tree edge has two endpoint switches, which makes incident-only
   checking sufficient network-wide. *)
let tree_uses_dead_incident_link t tree =
  List.exists
    (fun (v, l) -> (not (Net.Graph.is_up l)) && Mctree.Tree.mem_edge tree t.id v)
    (Net.Graph.links (Lsr.Lsdb.graph t.lsdb) t.id)

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
  t.sink (Start { timer = Compute { mc; id }; delay = t.config.tc });
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
  if tree_uses_dead_incident_link t tree then begin
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

(* Tie-break extension: two switches holding the same event knowledge
   can legitimately flood different trees under the SAME stamp, because
   incremental updates (§3.5) are history-dependent.  The paper
   implicitly assumes deterministic computation; with incremental
   updates we restore network-wide determinism by preferring, among
   equal-stamp proposals, the Tree.compare-minimal one — every switch
   sees every flooded proposal, so every switch settles on the same
   winner regardless of arrival order.  So a proposal supersedes the
   held one when its stamp is higher, or equal with a smaller tree. *)
let supersedes ~stamp ~tree ~held_stamp ~held_tree =
  Timestamp.gt stamp held_stamp
  || (Timestamp.equal stamp held_stamp
     && Mctree.Tree.compare tree held_tree < 0)

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
  (* Resynchronisation extension: an up-to-date proposal's member-list
     snapshot is authoritative for everything its stamp covers.  This is
     how a switch that missed events across a healed partition catches
     up without replaying them. *)
  (match lsa.members with
  | Some snapshot when current ->
    if not (Member.equal st.members snapshot) then begin
      if traced t then
        tracef t "adopt"
          "sw%d adopts snapshot %s from src %d stamp %s E=%s R=%s (was %s)"
          t.id (Member.to_string snapshot) lsa.src
          (Format.asprintf "%a" Timestamp.pp lsa.stamp)
          (Format.asprintf "%a" Timestamp.pp st.e)
          (Format.asprintf "%a" Timestamp.pp st.r)
          (Member.to_string st.members);
      st.members <- snapshot;
      t.sink Changed
    end;
    st.membership_seen <- Timestamp.merge_owned st.membership_seen lsa.stamp;
    st.r <- Timestamp.merge_owned st.r lsa.stamp
  | Some _ | None -> ());
  (* Lines 11-17: accept an up-to-date proposal (the best one by the
     [supersedes] tie-break), or detect that the sender did not know all
     our local events. *)
  match lsa.proposal with
  | Some tree when current ->
    st.flag <- false;
    let replaces =
      match candidate.Mc_lsa.proposal with
      | None -> true
      | Some held_tree ->
        supersedes ~stamp:lsa.stamp ~tree ~held_stamp:candidate.stamp
          ~held_tree
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
       wins the deterministic tie-break ([supersedes]). *)
    match candidate.proposal with
    | Some tree ->
      let stamp = candidate.stamp in
      if supersedes ~stamp ~tree ~held_stamp:st.c ~held_tree:st.topology
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
(* Database resynchronisation (extension; see mli) *)

(* Run [f] under a fresh [Resync] event: per MC, or for a session
   message when [mc] is absent. *)
let under_resync t ~peer ?mc f =
  let rid =
    if traced t then
      emit t
        (Resync
           {
             switch = t.id;
             peer;
             mc = (match mc with Some mc -> Mc_id.to_string mc | None -> "");
           })
    else -1
  in
  let saved = Sim.Trace.set_context t.trace rid in
  match f () with
  | v ->
    Sim.Trace.restore_context t.trace saved;
    v
  | exception e ->
    Sim.Trace.restore_context t.trace saved;
    raise e

(* No computation in flight and no LSA outstanding: the precondition
   for re-proposing on state a resynchronisation changed. *)
let may_repropose (st : Mc_state.t) =
  st.triggered = None && Timestamp.geq st.r st.e

(* Re-propose for [mc] under a [Resync] event: raise the flag and start
   a triggered computation. *)
let repropose t ~peer mc (st : Mc_state.t) =
  under_resync t ~peer ~mc (fun () ->
      st.flag <- true;
      start_triggered t mc st)

(* An installed topology is contradicted by the switch's (possibly just
   merged) image when it is no longer a valid embedded tree or no longer
   spans exactly the member set. *)
let topology_stale t (st : Mc_state.t) =
  (not (Member.is_empty st.members))
  && (let img = Lsr.Lsdb.graph t.lsdb in
      (not (Mctree.Tree.is_valid_mc_topology img st.topology))
      || not
           (List.equal Int.equal
              (Mctree.Tree.terminals st.topology)
              (Member.ids st.members)))

(* Version-gated merge of link entries into the local image.  A link
   event flooded while this switch was unreachable died at the severed
   links — flooding only forwards over live links — and nothing re-floods
   it spontaneously; D-GMC's agreement argument assumes the unicast
   databases converge (paper §1).  Versioned entries make the merge a
   per-link max; adopted events are re-flooded under this switch's own
   origin so switches BEHIND it learn them too (receivers version-gate,
   so duplicates are no-ops).  Returns whether the image changed. *)
let merge_links t ~source entries =
  let changed = ref false in
  List.iter
    (fun (ev : Lsr.Lsdb.link_event) ->
      if ev.version > Lsr.Lsdb.version t.lsdb ~u:ev.u ~v:ev.v then begin
        Lsr.Lsdb.apply t.lsdb ev;
        changed := true;
        tracef t "resync" "sw%d adopts %a from sw%d" t.id
          Lsr.Lsdb.pp_link_event ev source;
        t.sink (Flood (Link ev))
      end)
    entries;
  !changed

(* A changed image invalidates installs computed on the old one even for
   MCs a resynchronisation taught us nothing about.  Re-propose for every
   MC whose installed topology is contradicted by the merged image;
   consistent MCs saw nothing new and stay silent, keeping exchanges
   idempotent. *)
let revalidate_installs t ~peer =
  List.iter
    (fun mc ->
      match get_state t mc with
      | Some st when may_repropose st && topology_stale t st ->
        repropose t ~peer mc st
      | Some _ | None -> ())
    (mc_ids t)

(* A switch's state for [mc] as a delta ships it. *)
let export mc (st : Mc_state.t) =
  {
    Resync.exp_mc = mc;
    exp_r = Timestamp.freeze st.r;
    exp_e = Timestamp.freeze st.e;
    exp_c = st.c;
    exp_members = st.members;
    exp_membership_seen = Timestamp.freeze st.membership_seen;
    exp_topology = st.topology;
  }

(* Everything this switch can export, sorted by MC: its live states,
   then each tombstone without one, whose surviving event numbering
   ships with an empty member list and tree — a summary of it lets a
   neighbor still holding the MC push it back, and a delta of it replays
   the leaves that emptied the MC. *)
let exports t =
  let live = Mc_id.Tbl.fold (fun mc st acc -> export mc st :: acc) t.mcs [] in
  Mc_id.Tbl.fold
    (fun mc (r, e, seen) acc ->
      if Mc_id.Tbl.mem t.mcs mc then acc
      else
        {
          Resync.exp_mc = mc;
          exp_r = r;
          exp_e = e;
          exp_c = Timestamp.zero t.n;
          exp_members = Member.empty;
          exp_membership_seen = seen;
          exp_topology = Mctree.Tree.empty;
        }
        :: acc)
    t.tombstones live
  |> List.sort (fun a b -> Mc_id.compare a.Resync.exp_mc b.Resync.exp_mc)

(* The one adoption rule of both database exchanges: merge [E], and when
   the export's [R] teaches something new, run [adopt st k] where [k]
   merges [R], takes the export's membership where its per-source
   cursors are newer, installs its topology when based on newer state
   (same acceptance rule as for received proposals) and sets the
   recompute flag.  [adopt] lets the pairwise exchange wrap [k] in its
   trace context and re-propose at once; a delta defers re-proposal to
   [finish_resync], after its last export. *)
let apply_export t ~adopt (e : Resync.mc_export) =
  let st = get_or_create t e.exp_mc in
  let merged_r = Timestamp.merge st.r e.exp_r in
  st.e <- Timestamp.merge_owned st.e e.exp_e;
  if not (Timestamp.equal merged_r st.r) then
    adopt st (fun () ->
        (* Merge R before adopting the export's membership cursors: each
           cursor is covered by the export's R, so observers fired from
           the loop below never see a cursor ahead of R. *)
        st.r <- merged_r;
        (* The export's member entry for source [s] reflects all of
           [s]'s events up to component [s] of its membership cursor.
           Only positive cursors can be newer than ours. *)
        Timestamp.iter_nonzero
          (fun src peer_seen ->
            if peer_seen > Timestamp.get st.membership_seen src then begin
              st.membership_seen <-
                Timestamp.raise_owned st.membership_seen src peer_seen;
              (match Member.role e.exp_members src with
              | Some role -> st.members <- Member.join st.members src role
              | None -> st.members <- Member.leave st.members src);
              t.sink Changed
            end)
          e.exp_membership_seen;
        if
          supersedes ~stamp:e.exp_c ~tree:e.exp_topology ~held_stamp:st.c
            ~held_tree:st.topology
        then install t st e.exp_mc ~stamp:e.exp_c ~tree:e.exp_topology;
        st.flag <- true)

let resync t ~peer =
  (* Phase 1: merge the peer's link-state image. *)
  let image_changed =
    merge_links t ~source:peer.id (Lsr.Lsdb.entries peer.lsdb)
  in
  (* Phase 2: merge the peer's per-MC state, as a delta from it would:
     its tombstones too, so a leave that emptied the MC at the peer
     while the link was down reaches this side of it. *)
  List.iter
    (fun (x : Resync.mc_export) ->
      let mc = x.exp_mc in
      apply_export t x ~adopt:(fun st k ->
          under_resync t ~peer:peer.id ~mc (fun () ->
              k ();
              (* Reflood even when the adopted topology already covers R
                 (R = C): adopting silently would strand every switch
                 BEHIND this one — they never see what this exchange
                 learned, and nobody else will re-flood it (the peer's
                 original flood died at the severed link).  The extra
                 proposal is idempotent for up-to-date receivers. *)
              if may_repropose st then start_triggered t mc st)))
    (exports peer);
  (* Phase 3: re-propose wherever the merged image contradicts an
     install (the peer may never have been a member of the MC). *)
  if image_changed then revalidate_installs t ~peer:peer.id

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
         is already destroyed locally; ignore rather than resurrect.  One
         with an empty snapshot, up to date with the tombstone's E,
         agrees the MC is gone and knows every event its stamp covers:
         the tombstone takes the stamp, so a late copy of a covered join
         reads as stale instead of re-adding its member. *)
      match (Mc_id.Tbl.find_opt t.tombstones mc, lsa.members) with
      | Some (r, e, seen), Some snapshot
        when Member.is_empty snapshot && Timestamp.geq lsa.stamp e ->
        Mc_id.Tbl.replace t.tombstones mc
          ( Timestamp.merge r lsa.stamp,
            Timestamp.merge e lsa.stamp,
            Timestamp.merge seen lsa.stamp )
      | (Some _ | None), _ -> ())

(* ------------------------------------------------------------------ *)
(* Crash-recovery resynchronisation (see resync.mli and DESIGN.md).

   The paper has no recovery story: it assumes every LSA reaches every
   live switch.  A switch whose forwarding plane was down for a crash
   window silently missed floods and would diverge forever.  On recovery
   it therefore summarises its databases to each live neighbor and
   applies the first delta that answers.  MC LSAs arriving meanwhile are
   handled at once: a computation started on partial knowledge is
   withdrawn at completion if the delta moved R under it (Figures 4-5),
   like any other stale one. *)

let resync_state t = t.resync_session

let build_summary t session =
  Resync.Summary
    {
      session;
      origin = t.id;
      links = Lsr.Lsdb.entries t.lsdb;
      mcs =
        List.map
          (fun (x : Resync.mc_export) ->
            {
              Resync.sum_mc = x.exp_mc;
              sum_r = x.exp_r;
              sum_e = x.exp_e;
              sum_c = x.exp_c;
              sum_tree_fp = Mctree.Tree.fingerprint x.exp_topology;
            })
          (exports t);
    }

(* The session [s] ends with its delta applied. *)
let finish_resync t s =
  t.resync_session <- None;
  tracef t "resync" "sw%d session %d finished (delta)" t.id s;
  Metrics.Registry.bump t.counts.resyncs_completed;
  (* Re-propose wherever the reconciled state demands it: exports set
     the recompute flag but do not trigger while the delta is applied
     (a later export in it could supersede); installs may also
     contradict the merged image.  Same idempotence argument as
     [revalidate_installs]. *)
  List.iter
    (fun mc ->
      match get_state t mc with
      | Some st ->
        if may_repropose st && (st.flag || topology_stale t st) then
          repropose t ~peer:t.id mc st;
        maybe_delete t mc st
      | None -> ())
    (mc_ids t)

let begin_resync_impl t =
  (* A second crash window can close while an earlier session is still in
     flight; the fresh recovery supersedes it. *)
  (match t.resync_session with
  | Some s ->
    t.resync_session <- None;
    tracef t "resync" "sw%d restarts resync (session %d superseded)" t.id s
  | None -> ());
  t.resync_seq <- t.resync_seq + 1;
  let sid = t.resync_seq in
  Metrics.Registry.bump t.counts.resyncs_started;
  (* [Net.Graph.neighbors] yields live neighbors only — by this switch's
     own (possibly stale) image, which is exactly the set it can try. *)
  match List.map fst (Net.Graph.neighbors (Lsr.Lsdb.graph t.lsdb) t.id) with
  | [] ->
    tracef t "resync" "sw%d recovers with no live neighbors (degraded)" t.id;
    Metrics.Registry.bump t.counts.resyncs_degraded
  | neighbors ->
    t.resync_session <- Some sid;
    let summary = build_summary t sid in
    List.iter
      (fun nb ->
        under_resync t ~peer:nb (fun () ->
            Metrics.Registry.bump t.counts.resync_summaries_sent;
            t.sink (Send { peer = nb; msg = summary })))
      neighbors

let begin_resync t =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "dgmc.resync";
  match begin_resync_impl t with
  | () -> Metrics.Phase.leave ph
  | exception e ->
    Metrics.Phase.leave ph;
    raise e

(* Stateless delta responder: ship link entries strictly newer than the
   summary's and full exports for every MC where this switch knows
   events the summary's R does not cover (or holds a different
   same-stamp tree). *)
let answer_summary t ~session ~peer (sum_links : Lsr.Lsdb.link_event list)
    (sum_mcs : Resync.mc_summary list) =
  let summarised_version u v =
    match
      List.find_opt
        (fun (l : Lsr.Lsdb.link_event) -> l.u = u && l.v = v)
        sum_links
    with
    | Some l -> l.version
    | None -> 0
  in
  let links =
    List.filter
      (fun (ev : Lsr.Lsdb.link_event) ->
        ev.version > summarised_version ev.u ev.v)
      (Lsr.Lsdb.entries t.lsdb)
  in
  let summary_of mc =
    List.find_opt (fun s -> Mc_id.equal s.Resync.sum_mc mc) sum_mcs
  in
  let behind (x : Resync.mc_export) =
    match summary_of x.exp_mc with
    | None -> true
    | Some s ->
      (not (Timestamp.geq s.sum_r x.exp_r))
      || (not (Timestamp.geq s.sum_e x.exp_e))
      (* A tombstone compares only R and E. *)
      || (Mc_id.Tbl.mem t.mcs x.exp_mc
         && (Timestamp.gt x.exp_c s.sum_c
            || (Timestamp.equal x.exp_c s.sum_c
               && not
                    (String.equal s.sum_tree_fp
                       (Mctree.Tree.fingerprint x.exp_topology)))))
  in
  let mcs = List.filter behind (exports t) in
  (* Reply even when empty: any delta completes the recoverer's session. *)
  Metrics.Registry.bump t.counts.resync_deltas_sent;
  t.sink
    (Send { peer; msg = Resync.Delta { session; origin = t.id; links; mcs } })

let receive_resync_impl t msg =
  match msg with
  | Resync.Summary { session; origin = peer; links; mcs } ->
    Metrics.Registry.bump t.counts.resync_summaries_received;
    under_resync t ~peer (fun () ->
        (* The recoverer's own incident links may have changed during its
           outage, and their floods died with it: adopt (and re-flood)
           anything newer its summary proves, then revalidate installs
           against the merged image — the responder is NOT suspended. *)
        if merge_links t ~source:peer links then revalidate_installs t ~peer;
        answer_summary t ~session ~peer links mcs)
  | Resync.Delta { session; origin = peer; links; mcs } -> (
    match t.resync_session with
    | Some s when s = session ->
      Metrics.Registry.bump t.counts.resync_deltas_applied;
      under_resync t ~peer (fun () ->
          ignore (merge_links t ~source:peer links);
          List.iter (apply_export t ~adopt:(fun _ k -> k ())) mcs);
      finish_resync t s
    | Some _ | None ->
      (* Stale: from a superseded session — it may predate a second
         outage — or after another neighbor's delta finished the
         session.  Everything it carries was either applied already or
         will be re-learned; dropping is safe. *)
      tracef t "resync" "sw%d drops stale resync delta from sw%d" t.id peer;
      Metrics.Registry.bump t.counts.resync_stale_deltas)

let receive_resync t msg =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "dgmc.resync";
  match receive_resync_impl t msg with
  | () -> Metrics.Phase.leave ph
  | exception e ->
    Metrics.Phase.leave ph;
    raise e

let deliver t = function
  | Mc lsa -> receive t lsa
  | Link ev -> Lsr.Lsdb.apply t.lsdb ev
  | Resync msg -> receive_resync t msg

(* A computation is found by its id: completing one removes it, so a
   second firing of its timer finds nothing. *)
let fire t = function
  | Compute { mc; id } -> (
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
