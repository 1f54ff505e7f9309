(* Branch-level tests of the EventHandler/ReceiveLSA algorithms
   (paper Figures 4 and 5), driving a single Switch with crafted LSAs
   instead of a whole network.  Each test pins down one decision point
   of the pseudocode. *)

let check = Alcotest.check

let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

let grid () = Net.Topo_gen.grid ~rows:2 ~cols:3

(* A harness around one switch: records every output it emits and, as
   Protocol does, schedules every timer it starts on the engine. *)
type harness = {
  engine : Sim.Engine.t;
  sw : Dgmc.Switch.t;
  outputs : Dgmc.Switch.output list ref;
}

let harness ?(id = 5) () =
  let engine = Sim.Engine.create () in
  let sw =
    Dgmc.Switch.create ~id ~n:6 ~config:Dgmc.Config.atm_lan ~engine
      ~boot:(Lsr.Lsdb.boot (grid ()))
  in
  let outputs = ref [] in
  Dgmc.Switch.connect sw (fun o ->
      outputs := o :: !outputs;
      match o with
      | Start { timer; delay } ->
        ignore
          (Sim.Engine.schedule engine ~delay (fun () ->
               Dgmc.Switch.fire sw timer))
      | Flood _ | Send _ | Changed -> ());
  { engine; sw; outputs }

let outputs h = List.rev !(h.outputs)

(* The MC LSAs among the outputs, in flooding order. *)
let floods h =
  List.filter_map
    (function Dgmc.Switch.Flood (Mc lsa) -> Some lsa | _ -> None)
    (outputs h)

let link_floods h =
  List.filter_map
    (function Dgmc.Switch.Flood (Link ev) -> Some ev | _ -> None)
    (outputs h)

let receive sw lsa = Dgmc.Switch.deliver sw (Dgmc.Switch.Mc lsa)

let stamp l = Oracle.Timestamp.of_array (Array.of_list l)

let join_lsa ?proposal ?members ~src ~stamp:s () =
  Dgmc.Mc_lsa.make ~src ~event:(Dgmc.Mc_lsa.Join Dgmc.Member.Both) ~mc ?proposal
    ?members ~stamp:s ()

let proposal_lsa ~src ~tree ~members ~stamp:s () =
  Dgmc.Mc_lsa.make ~src ~event:Dgmc.Mc_lsa.No_event ~mc ~proposal:tree ~members
    ~stamp:s ()

(* ------------------------------------------------------------------ *)
(* EventHandler branches (Figure 4) *)

let test_event_with_no_outstanding_floods_proposal () =
  (* Lines 2-10: R >= E, so the event LSA carries a proposal after Tc. *)
  let h = harness () in
  Dgmc.Switch.host_join h.sw mc Dgmc.Member.Both;
  check Alcotest.int "nothing flooded before Tc" 0 (List.length (floods h));
  Sim.Engine.run h.engine;
  match floods h with
  | [ lsa ] ->
    check Alcotest.bool "carries the event" true (Dgmc.Mc_lsa.is_event lsa);
    check Alcotest.bool "carries a proposal" true (lsa.proposal <> None);
    check Alcotest.int "stamp counts the event" 1 (Dgmc.Timestamp.get lsa.stamp 5)
  | l -> Alcotest.failf "expected exactly one LSA, got %d" (List.length l)

let test_event_with_outstanding_defers () =
  (* Lines 15-17: E > R (an outstanding LSA is expected), so the event
     floods immediately, bare, and the proposal is deferred. *)
  let h = harness () in
  (* Teach the switch to expect an event from switch 0 it has not seen:
     an LSA from switch 1 whose stamp covers one event of switch 0. *)
  receive h.sw (join_lsa ~src:1 ~stamp:(stamp [ 1; 1; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  let before = List.length (floods h) in
  Dgmc.Switch.host_join h.sw mc Dgmc.Member.Both;
  (* The bare event LSA goes out synchronously — no Tc wait. *)
  let lsa = List.nth (floods h) before in
  check Alcotest.bool "event flooded immediately" true (Dgmc.Mc_lsa.is_event lsa);
  check Alcotest.bool "no proposal attached" true (lsa.proposal = None)

let test_withdrawn_event_computation_still_advertises () =
  (* Lines 11-13: R advances mid-computation => the proposal is
     withdrawn but the event itself is still flooded (bare). *)
  let h = harness () in
  Dgmc.Switch.host_join h.sw mc Dgmc.Member.Both;
  (* Before Tc elapses, an event from elsewhere arrives and is consumed,
     advancing R. *)
  receive h.sw (join_lsa ~src:2 ~stamp:(stamp [ 0; 0; 1; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  let own_event_lsas =
    List.filter
      (fun (l : Dgmc.Mc_lsa.t) -> Dgmc.Mc_lsa.is_event l && l.src = 5)
      (floods h)
  in
  (match own_event_lsas with
  | [ lsa ] -> check Alcotest.bool "withdrawn => bare event" true (lsa.proposal = None)
  | _ -> Alcotest.fail "own event must be advertised exactly once");
  let s = Dgmc.Switch.stats h.sw in
  check Alcotest.int "computation counted" 1 s.computations_withdrawn

let test_link_event_only_for_affected_mcs () =
  let h = harness () in
  let other = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 2 in
  (* Install a topology for [mc] that uses link (0, 1); [other] uses
     only (4, 5).  Both via accepted proposals. *)
  let install target_mc tree_edges members_ids =
    let members =
      Dgmc.Member.of_list (List.map (fun x -> (x, Dgmc.Member.Both)) members_ids)
    in
    let tree = Mctree.Tree.of_edges ~terminals:members_ids tree_edges in
    let s =
      List.fold_left
        (fun acc m -> Oracle.Timestamp.bump acc m)
        (Dgmc.Timestamp.zero 6) members_ids
    in
    receive h.sw
      (Dgmc.Mc_lsa.make ~src:(List.hd members_ids)
         ~event:(Dgmc.Mc_lsa.Join Dgmc.Member.Both) ~mc:target_mc ~proposal:tree
         ~members ~stamp:s ())
  in
  install mc [ (0, 1) ] [ 0; 1 ];
  install other [ (4, 5) ] [ 4 ];
  Sim.Engine.run h.engine;
  let before = List.length (floods h) in
  (* Link (0, 1) fails; only [mc] is affected. *)
  let down = { Lsr.Lsdb.u = 0; v = 1; up = false; version = 1 } in
  Dgmc.Switch.detect h.sw down;
  Sim.Engine.run h.engine;
  let new_lsas = List.filteri (fun i _ -> i >= before) (floods h) in
  check Alcotest.int "one MC link LSA" 1 (List.length new_lsas);
  let lsa = List.hd new_lsas in
  check Alcotest.bool "for the affected MC" true (Dgmc.Mc_id.equal lsa.mc mc);
  check Alcotest.bool "link event" true (lsa.event = Dgmc.Mc_lsa.Link);
  match link_floods h with
  | [ ev ] ->
    check Alcotest.bool "the detected link event flooded" true (ev == down)
  | l -> Alcotest.failf "expected exactly one link flood, got %d" (List.length l)

let test_link_event_non_detector_is_silent () =
  let h = harness () in
  Dgmc.Switch.deliver h.sw
    (Link { Lsr.Lsdb.u = 0; v = 1; up = false; version = 1 });
  Sim.Engine.run h.engine;
  check Alcotest.int "no output" 0 (List.length (outputs h));
  check Alcotest.bool "image updated" false
    (Net.Graph.link_is_up (Dgmc.Switch.image h.sw) 0 1)

(* ------------------------------------------------------------------ *)
(* ReceiveLSA branches (Figure 5) *)

let test_accepts_up_to_date_proposal () =
  (* Lines 11-14: T >= E => candidate accepted and installed. *)
  let h = harness () in
  let tree = Mctree.Tree.of_edges ~terminals:[ 0 ] [] in
  let members = Dgmc.Member.of_list [ (0, Dgmc.Member.Both) ] in
  receive h.sw
    (join_lsa ~src:0 ~proposal:tree ~members ~stamp:(stamp [ 1; 0; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  check Alcotest.bool "topology installed" true
    (Option.equal Mctree.Tree.equal (Dgmc.Switch.topology h.sw mc) (Some tree));
  check Alcotest.int "accepted counted" 1 (Dgmc.Switch.stats h.sw).proposals_accepted;
  let _, _, c = Option.get (Dgmc.Switch.stamps h.sw mc) in
  check Alcotest.int "C adopted" 1 (Dgmc.Timestamp.get c 0)

(* Incremental updates can give two switches with the same knowledge
   different trees under one stamp (the tie-break extension, [Tiebreak]).
   Two such proposals reach one switch, in separate invocations and in
   one mailbox, in both orders: every order installs the same tree, the
   lesser by [Mctree.Tree.compare].  A switch keeping whichever came
   first ([supersedes] as [Timestamp.gt]) installs the first. *)
let test_equal_stamps_tie_break () =
  let members =
    Dgmc.Member.of_list [ (0, Dgmc.Member.Both); (1, Dgmc.Member.Both) ]
  in
  let s = [ 1; 1; 0; 0; 0; 0 ] in
  let direct = Mctree.Tree.of_edges ~terminals:[ 0; 1 ] [ (0, 1) ]
  and around =
    Mctree.Tree.of_edges ~terminals:[ 0; 1 ] [ (0, 3); (3, 4); (1, 4) ]
  in
  let installed ~together first second =
    let h = harness () in
    (* The two joins, bare, so the switch holds the MC and expects them. *)
    receive h.sw (join_lsa ~src:0 ~stamp:(stamp [ 1; 0; 0; 0; 0; 0 ]) ());
    receive h.sw (join_lsa ~src:1 ~stamp:(stamp s) ());
    Sim.Engine.run h.engine;
    let propose src tree =
      receive h.sw (proposal_lsa ~src ~tree ~members ~stamp:(stamp s) ())
    in
    propose 2 first;
    if not together then Sim.Engine.run h.engine;
    propose 3 second;
    Sim.Engine.run h.engine;
    Dgmc.Switch.topology h.sw mc
  in
  let least =
    if Mctree.Tree.compare direct around < 0 then direct else around
  in
  List.iter
    (fun together ->
      List.iter
        (fun (first, second, order) ->
          let where =
            Printf.sprintf "%s, %s" order
              (if together then "one mailbox" else "two invocations")
          in
          check Alcotest.bool (where ^ ": the lesser tree installed") true
            (Option.equal Mctree.Tree.equal
               (installed ~together first second)
               (Some least)))
        [ (direct, around, "direct first"); (around, direct, "around first") ])
    [ false; true ]

let test_rejects_stale_proposal () =
  (* A proposal whose stamp does not cover everything expected is not
     installed. *)
  let h = harness () in
  (* First learn (via an event LSA) that switch 0 has had 2 events. *)
  receive h.sw (join_lsa ~src:0 ~stamp:(stamp [ 2; 0; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  let installed_before = Dgmc.Switch.topology h.sw mc in
  (* Now a proposal based on only 1 event of switch 0 arrives late. *)
  let stale_tree = Mctree.Tree.of_edges ~terminals:[ 0; 1 ] [ (0, 1) ] in
  receive h.sw
    (proposal_lsa ~src:1 ~tree:stale_tree
       ~members:(Dgmc.Member.of_list [ (0, Dgmc.Member.Both) ])
       ~stamp:(stamp [ 1; 0; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  let installed = Dgmc.Switch.topology h.sw mc in
  let same = Option.equal Mctree.Tree.equal in
  check Alcotest.bool "stale proposal not installed" true
    (same installed installed_before || not (same installed (Some stale_tree)))

let test_inconsistency_triggers_own_proposal () =
  (* Lines 15-16 + 19-27: the arriving LSA's stamp misses our local
     event => flag set => triggered computation => triggered LSA. *)
  let h = harness () in
  Dgmc.Switch.host_join h.sw mc Dgmc.Member.Both;
  Sim.Engine.run h.engine;
  let before = List.length (floods h) in
  (* An event LSA from switch 0 that does not know our event. *)
  receive h.sw (join_lsa ~src:0 ~stamp:(stamp [ 1; 0; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  let new_lsas = List.filteri (fun i _ -> i >= before) (floods h) in
  (match new_lsas with
  | [ lsa ] ->
    check Alcotest.bool "triggered (no event)" false (Dgmc.Mc_lsa.is_event lsa);
    check Alcotest.bool "carries proposal" true (lsa.proposal <> None);
    check Alcotest.int "stamp covers both events" 2 (Oracle.Timestamp.sum lsa.stamp)
  | l -> Alcotest.failf "expected one triggered LSA, got %d" (List.length l));
  (* E is brought up to R after flooding (line 24). *)
  let r, e, _ = Option.get (Dgmc.Switch.stamps h.sw mc) in
  check Alcotest.bool "E = R" true (Dgmc.Timestamp.equal r e)

let test_consistent_event_does_not_trigger () =
  (* An event LSA whose stamp covers all our events sets no flag: we
     wait for the sender's (or someone's) proposal instead. *)
  let h = harness () in
  receive h.sw (join_lsa ~src:0 ~stamp:(stamp [ 1; 0; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  check Alcotest.int "no computation at a mere bystander" 0
    (Dgmc.Switch.stats h.sw).computations;
  check Alcotest.int "nothing flooded" 0 (List.length (floods h))

let test_r_gt_c_suppresses_duplicate_proposal () =
  (* Line 19's R > C condition: once a proposal for the current event
     set is installed, later bare LSAs for the same events do not make
     this switch compute again. *)
  let h = harness () in
  Dgmc.Switch.host_join h.sw mc Dgmc.Member.Both;
  Sim.Engine.run h.engine;
  (* Installed own proposal: C = R. *)
  let computations = (Dgmc.Switch.stats h.sw).computations in
  (* A bare LSA with an all-zero stamp: it does not know our event, so
     the flag is set (line 15) — but R has not advanced beyond C, so
     line 19's R > C forbids recomputing for the same event set. *)
  receive h.sw
    (Dgmc.Mc_lsa.make ~src:0 ~event:Dgmc.Mc_lsa.No_event ~mc
       ~stamp:(stamp [ 0; 0; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  check Alcotest.int "no extra computation"
    computations
    (Dgmc.Switch.stats h.sw).computations

let test_triggered_withdrawn_when_mailbox_nonempty () =
  (* Lines 22 and 28-30: LSAs arriving during a triggered computation
     leave the mailbox non-empty at completion => withdraw, then the
     next invocation consumes them. *)
  let h = harness () in
  Dgmc.Switch.host_join h.sw mc Dgmc.Member.Both;
  Sim.Engine.run h.engine;
  (* Trigger a computation via an inconsistent event LSA... *)
  receive h.sw (join_lsa ~src:0 ~stamp:(stamp [ 1; 0; 0; 0; 0; 0 ]) ());
  (* ...and land another LSA before Tc elapses (the triggered
     computation is pending; the mailbox accumulates). *)
  ignore
    (Sim.Engine.schedule h.engine ~delay:(Dgmc.Config.atm_lan.tc /. 2.0)
       (fun () ->
         receive h.sw
           (join_lsa ~src:1 ~stamp:(stamp [ 1; 1; 0; 0; 0; 0 ]) ())));
  Sim.Engine.run h.engine;
  let s = Dgmc.Switch.stats h.sw in
  check Alcotest.bool "a computation was withdrawn" true
    (s.computations_withdrawn >= 1);
  (* Eventually a proposal covering all three events is flooded. *)
  let final_proposals =
    List.filter
      (fun (l : Dgmc.Mc_lsa.t) ->
        l.proposal <> None && Oracle.Timestamp.sum l.stamp = 3)
      (floods h)
  in
  check Alcotest.bool "final proposal covers all events" true
    (final_proposals <> [])

let test_unknown_mc_bare_proposal_dropped () =
  let h = harness () in
  receive h.sw
    (proposal_lsa ~src:0
       ~tree:(Mctree.Tree.of_terminals [ 0 ])
       ~members:(Dgmc.Member.of_list [ (0, Dgmc.Member.Both) ])
       ~stamp:(stamp [ 1; 0; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  check Alcotest.bool "no state created" true (Dgmc.Switch.members h.sw mc = None)

(* A deleted MC's tombstone takes the stamp of a bare proposal whose
   empty snapshot is up to date with it: the proposer knew every event
   the stamp covers and the MC is empty after all of them, which is what
   adopting the snapshot into a recreated state and deleting it again
   would leave.  A late copy of a covered join is then stale.  A
   proposal with members, or one behind the tombstone's E, teaches the
   tombstone nothing. *)
let test_empty_proposal_advances_tombstone () =
  let h = harness () in
  let leave_lsa ~src ~stamp:s =
    Dgmc.Mc_lsa.make ~src ~event:Dgmc.Mc_lsa.Leave ~mc ~stamp:s ()
  in
  receive h.sw (join_lsa ~src:0 ~stamp:(stamp [ 1; 0; 0; 0; 0; 0 ]) ());
  receive h.sw (leave_lsa ~src:0 ~stamp:(stamp [ 2; 0; 0; 0; 0; 0 ]));
  Sim.Engine.run h.engine;
  let tombstone () =
    match Dgmc.Switch.tombstones h.sw with
    | [ (_, (r, _, seen)) ] ->
      (Dgmc.Timestamp.to_array r, Dgmc.Timestamp.to_array seen)
    | l -> Alcotest.failf "expected one tombstone, got %d" (List.length l)
  in
  check Alcotest.bool "MC deleted" true (Dgmc.Switch.members h.sw mc = None);
  let before = tombstone () in
  let bare ~members s =
    proposal_lsa ~src:3 ~tree:Mctree.Tree.empty ~members ~stamp:(stamp s) ()
  in
  (* Switch 1 joined and left while this switch missed both floods. *)
  receive h.sw
    (bare ~members:(Dgmc.Member.of_list [ (3, Dgmc.Member.Both) ])
       [ 2; 2; 0; 0; 0; 0 ]);
  receive h.sw (bare ~members:Dgmc.Member.empty [ 1; 2; 0; 0; 0; 0 ]);
  check
    Alcotest.(pair (array int) (array int))
    "no merge from members or from behind E" before (tombstone ());
  receive h.sw (bare ~members:Dgmc.Member.empty [ 2; 2; 0; 0; 0; 0 ]);
  check
    Alcotest.(pair (array int) (array int))
    "R and the cursors take the stamp"
    ([| 2; 2; 0; 0; 0; 0 |], [| 2; 2; 0; 0; 0; 0 |])
    (tombstone ());
  (* A retransmitted copy of switch 1's join arrives after all. *)
  receive h.sw (join_lsa ~src:1 ~stamp:(stamp [ 2; 1; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  check Alcotest.bool "late join stays stale: MC still deleted" true
    (Dgmc.Switch.members h.sw mc = None)

let test_event_lsa_creates_state () =
  let h = harness () in
  receive h.sw (join_lsa ~src:0 ~stamp:(stamp [ 1; 0; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  match Dgmc.Switch.members h.sw mc with
  | Some m -> check Alcotest.(list int) "member recorded" [ 0 ] (Dgmc.Member.ids m)
  | None -> Alcotest.fail "event LSA must create state"

let test_stale_membership_not_applied_backwards () =
  (* The per-source sequencing: a reordered older membership LSA counts
     as an event but does not roll the member list back. *)
  let h = harness () in
  (* Newer LSA first: switch 0's SECOND event, a join. *)
  receive h.sw (join_lsa ~src:0 ~stamp:(stamp [ 2; 0; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  (* Older LSA late: switch 0's FIRST event was a leave... which would
     remove it if applied. *)
  receive h.sw
    (Dgmc.Mc_lsa.make ~src:0 ~event:Dgmc.Mc_lsa.Leave ~mc
       ~stamp:(stamp [ 1; 0; 0; 0; 0; 0 ]) ());
  Sim.Engine.run h.engine;
  let m = Option.get (Dgmc.Switch.members h.sw mc) in
  check Alcotest.(list int) "newer membership preserved" [ 0 ] (Dgmc.Member.ids m);
  let r, _, _ = Option.get (Dgmc.Switch.stamps h.sw mc) in
  check Alcotest.int "both events counted" 2 (Dgmc.Timestamp.get r 0)

let unconnected () =
  Dgmc.Switch.create ~id:0 ~n:6 ~config:Dgmc.Config.atm_lan
    ~engine:(Sim.Engine.create ()) ~boot:(Lsr.Lsdb.boot (grid ()))

let not_connected = Invalid_argument "Switch: not connected"

let test_sink_required () =
  (* The join's first output is its member-list change. *)
  Alcotest.check_raises "first output of an unconnected switch" not_connected
    (fun () -> Dgmc.Switch.host_join (unconnected ()) mc Dgmc.Member.Both)

let test_detect_requires_sink () =
  (* No MC uses the link, so the link flood is the only output. *)
  Alcotest.check_raises "link flood of an unconnected switch" not_connected
    (fun () ->
      Dgmc.Switch.detect (unconnected ())
        { Lsr.Lsdb.u = 0; v = 1; up = false; version = 1 })

let test_join_starts_computation_timer () =
  (* A join's computation is a Start output: nothing lands on the
     engine, and nothing floods, until the driver runs the timer. *)
  let engine = Sim.Engine.create () in
  let sw =
    Dgmc.Switch.create ~id:5 ~n:6 ~config:Dgmc.Config.atm_lan ~engine
      ~boot:(Lsr.Lsdb.boot (grid ()))
  in
  let outputs = ref [] in
  Dgmc.Switch.connect sw (fun o -> outputs := o :: !outputs);
  Dgmc.Switch.host_join sw mc Dgmc.Member.Both;
  let starts =
    List.filter_map
      (function
        | Dgmc.Switch.Start { timer; delay } -> Some (timer, delay) | _ -> None)
      !outputs
  in
  let timer =
    match starts with
    | [ ((Compute { mc = m; _ } as timer), delay) ] ->
      check Alcotest.bool "for the joined MC" true (Dgmc.Mc_id.equal m mc);
      check (Alcotest.float 0.0) "delay is Tc" Dgmc.Config.atm_lan.tc delay;
      timer
    | l -> Alcotest.failf "expected one Compute start, got %d" (List.length l)
  in
  check Alcotest.int "nothing on the engine" 0 (Sim.Engine.pending engine);
  let mc_floods () =
    List.filter_map
      (function Dgmc.Switch.Flood (Mc lsa) -> Some lsa | _ -> None)
      !outputs
  in
  check Alcotest.int "nothing flooded before the timer" 0
    (List.length (mc_floods ()));
  ignore
    (Sim.Engine.schedule engine ~delay:Dgmc.Config.atm_lan.tc (fun () ->
         Dgmc.Switch.fire sw timer));
  Sim.Engine.run engine;
  (match mc_floods () with
  | [ lsa ] ->
    check Alcotest.bool "floods the proposal" true
      (Option.equal Mctree.Tree.equal lsa.proposal
         (Dgmc.Switch.topology sw mc))
  | l -> Alcotest.failf "expected one flood, got %d" (List.length l));
  check Alcotest.bool "installs a tree over the member" true
    (match Dgmc.Switch.topology sw mc with
    | Some tree -> Mctree.Tree.is_terminal tree 5
    | None -> false);
  let before = List.length !outputs in
  let stamps = Dgmc.Switch.stamps sw mc in
  Dgmc.Switch.fire sw timer;
  check Alcotest.int "a second firing emits nothing" before
    (List.length !outputs);
  check Alcotest.int "and completes nothing" 1
    (Dgmc.Switch.stats sw).computations;
  check Alcotest.bool "nor moves a stamp" true
    (Option.equal
       (fun (r, e, c) (r', e', c') ->
         Dgmc.Timestamp.equal r r' && Dgmc.Timestamp.equal e e'
         && Dgmc.Timestamp.equal c c')
       stamps (Dgmc.Switch.stamps sw mc))

(* ------------------------------------------------------------------ *)
(* Crash-recovery session gate (Exchange) *)

let test_superseded_session_delta_dropped () =
  (* Two recoveries in a row: the second supersedes the first, so a
     delta echoing the first session is stale however much it would
     teach, and only the second session's delta applies. *)
  let metrics = Metrics.Registry.create () in
  let engine = Sim.Engine.create ~metrics () in
  let sw =
    Dgmc.Switch.create ~id:5 ~n:6 ~config:Dgmc.Config.atm_lan ~engine
      ~boot:(Lsr.Lsdb.boot (grid ()))
  in
  let sessions = ref [] in
  Dgmc.Switch.connect sw (function
    | Send { msg = Dgmc.Resync.Summary { session; _ }; _ } ->
      sessions := session :: !sessions
    | Flood _ | Send _ | Changed | Start _ -> ());
  Dgmc.Switch.begin_resync sw;
  Dgmc.Switch.begin_resync sw;
  let first, second =
    match List.sort_uniq Int.compare !sessions with
    | [ a; b ] -> (a, b)
    | l -> Alcotest.failf "expected two sessions, got %d" (List.length l)
  in
  let session = Alcotest.(option int) in
  check session "the second session is open" (Some second)
    (Dgmc.Switch.resync_state sw);
  let seen = stamp [ 0; 0; 0; 0; 1; 0 ] in
  let delta session =
    Dgmc.Switch.Resync
      (Dgmc.Resync.Delta
         {
           session;
           origin = 4;
           links = [];
           mcs =
             [
               {
                 Dgmc.Resync.exp_mc = mc;
                 exp_r = seen;
                 exp_e = seen;
                 exp_c = seen;
                 exp_members = Dgmc.Member.of_list [ (4, Dgmc.Member.Both) ];
                 exp_membership_seen = seen;
                 exp_topology = Mctree.Tree.of_terminals [ 4 ];
               };
             ];
         })
  in
  let count name = Oracle.Registry.counter_value metrics ~switch:5 name in
  Dgmc.Switch.deliver sw (delta first);
  check Alcotest.bool "the stale delta taught nothing" true
    (Option.is_none (Dgmc.Switch.members sw mc));
  check session "the second session stays open" (Some second)
    (Dgmc.Switch.resync_state sw);
  check Alcotest.int "counted stale" 1 (count "switch.resync_stale_deltas");
  Dgmc.Switch.deliver sw (delta second);
  check Alcotest.(list int) "the current delta applies" [ 4 ]
    (Dgmc.Member.ids (Option.get (Dgmc.Switch.members sw mc)));
  check session "and closes the session" None (Dgmc.Switch.resync_state sw);
  check Alcotest.int "counted applied" 1 (count "switch.resync_deltas_applied")

let () =
  Alcotest.run "dgmc-switch"
    [
      ( "event-handler",
        [
          Alcotest.test_case "proposal when nothing outstanding" `Quick
            test_event_with_no_outstanding_floods_proposal;
          Alcotest.test_case "defers when outstanding" `Quick
            test_event_with_outstanding_defers;
          Alcotest.test_case "withdrawn computation still advertises" `Quick
            test_withdrawn_event_computation_still_advertises;
          Alcotest.test_case "link event scoped to affected MCs" `Quick
            test_link_event_only_for_affected_mcs;
          Alcotest.test_case "non-detector stays silent" `Quick
            test_link_event_non_detector_is_silent;
        ] );
      ( "receive-lsa",
        [
          Alcotest.test_case "accepts up-to-date proposal" `Quick
            test_accepts_up_to_date_proposal;
          Alcotest.test_case "rejects stale proposal" `Quick
            test_rejects_stale_proposal;
          Alcotest.test_case "equal stamps: both orders install one tree"
            `Quick test_equal_stamps_tie_break;
          Alcotest.test_case "inconsistency triggers proposal" `Quick
            test_inconsistency_triggers_own_proposal;
          Alcotest.test_case "consistent event does not trigger" `Quick
            test_consistent_event_does_not_trigger;
          Alcotest.test_case "R > C suppresses duplicates" `Quick
            test_r_gt_c_suppresses_duplicate_proposal;
          Alcotest.test_case "withdrawal on busy mailbox" `Quick
            test_triggered_withdrawn_when_mailbox_nonempty;
          Alcotest.test_case "bare proposal for unknown MC dropped" `Quick
            test_unknown_mc_bare_proposal_dropped;
          Alcotest.test_case "empty proposal advances the tombstone" `Quick
            test_empty_proposal_advances_tombstone;
          Alcotest.test_case "event LSA creates state" `Quick
            test_event_lsa_creates_state;
          Alcotest.test_case "stale membership skipped" `Quick
            test_stale_membership_not_applied_backwards;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "output sink required" `Quick test_sink_required;
          Alcotest.test_case "detect requires a sink" `Quick
            test_detect_requires_sink;
          Alcotest.test_case "a join starts a timer the driver fires" `Quick
            test_join_starts_computation_timer;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "a superseded session's delta is dropped" `Quick
            test_superseded_session_delta_dropped;
        ] );
    ]
