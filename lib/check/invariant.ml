module Timestamp = Dgmc.Timestamp
module Switch = Dgmc.Switch

type violation = {
  switch : int option;
  mc : Dgmc.Mc_id.t option;
  law : string;
  detail : string;
}

let pp ppf v =
  Format.fprintf ppf "[%s]" v.law;
  (match v.switch with
  | Some s -> Format.fprintf ppf " switch %d" s
  | None -> Format.fprintf ppf " network");
  (match v.mc with
  | Some m -> Format.fprintf ppf " %a" Dgmc.Mc_id.pp m
  | None -> ());
  Format.fprintf ppf ": %s" v.detail

let to_string v = Format.asprintf "%a" pp v

let stamp ts = Format.asprintf "%a" Timestamp.pp ts

let check_snapshot ~boundary id (s : Switch.mc_snapshot) =
  let v law detail = { switch = Some id; mc = Some s.snap_mc; law; detail } in
  let out = ref [] in
  let push x = out := x :: !out in
  if not (Timestamp.geq s.snap_r s.snap_c) then
    push
      (v "C<=R"
         (Printf.sprintf "installed stamp C=%s not covered by R=%s"
            (stamp s.snap_c) (stamp s.snap_r)));
  if boundary && not (Timestamp.geq s.snap_e s.snap_r) then
    push
      (v "R<=E"
         (Printf.sprintf "received count R=%s exceeds expected E=%s"
            (stamp s.snap_r) (stamp s.snap_e)));
  (* Only a positive cursor can exceed R, so the nonzero walk checks the
     whole dense view, in the same index order. *)
  Timestamp.iter_nonzero
    (fun i seen ->
      if seen > Timestamp.get s.snap_r i then
        push
          (v "seen<=R"
             (Printf.sprintf
                "membership cursor for source %d is %d but R[%d]=%d" i seen i
                (Timestamp.get s.snap_r i))))
    s.snap_membership_seen;
  if not (Mctree.Tree.is_tree s.snap_topology) then
    push
      (v "tree"
         (Format.asprintf "installed topology is not a tree: %a"
            Mctree.Tree.pp s.snap_topology));
  if not (Mctree.Tree.spans_terminals s.snap_topology) then
    push
      (v "span"
         (Format.asprintf "installed topology does not span its terminals: %a"
            Mctree.Tree.pp s.snap_topology));
  List.rev !out

let check_switch ?(boundary = true) ~id sw =
  List.concat_map (check_snapshot ~boundary id) (Switch.snapshots sw)

let installed_stamps sw =
  List.map
    (fun (s : Switch.mc_snapshot) -> (s.snap_mc, s.snap_c))
    (Switch.snapshots sw)

let check_monotone ~id ~before sw =
  List.filter_map
    (fun (s : Switch.mc_snapshot) ->
      match
        List.find_opt (fun (mc, _) -> Dgmc.Mc_id.equal mc s.snap_mc) before
      with
      | None -> None
      | Some (_, old_c) ->
        if Timestamp.geq s.snap_c old_c then None
        else
          Some
            {
              switch = Some id;
              mc = Some s.snap_mc;
              law = "C-monotone";
              detail =
                Printf.sprintf
                  "installed-state basis regressed from C=%s to C=%s"
                  (stamp old_c) (stamp s.snap_c);
            })
    (Switch.snapshots sw)

(* Collect every MC any switch holds state for, plus the ground-truth MCs
   (so an MC wrongly deleted everywhere is still examined). *)
let all_mcs ~truth switches =
  let add acc mc =
    if List.exists (Dgmc.Mc_id.equal mc) acc then acc else mc :: acc
  in
  let acc = List.fold_left (fun acc (mc, _) -> add acc mc) [] truth in
  Array.fold_left
    (fun acc sw -> List.fold_left add acc (Switch.mc_ids sw))
    acc switches
  |> List.sort Dgmc.Mc_id.compare

(* ------------------------------------------------------------------ *)
(* Link-health laws (over the harness's abstract hello model) *)

let check_health_state ~detect_rounds ~spurious adjacencies =
  let out = ref [] in
  let push x = out := x :: !out in
  (* The abstract model loses no hellos, so any down declaration made
     while ground truth said the adjacency was usable is a detector
     false positive — on every schedule, not just fault-free ones. *)
  List.iter
    (fun msg ->
      push { switch = None; mc = None; law = "hello-false-positive"; detail = msg })
    spurious;
  (* Every persistent failure is detected within the configured bound:
     once an adjacency has been truth-down for [detect_rounds] hello
     rounds with its watcher alive, the watcher must believe it down. *)
  List.iter
    (fun (a : Harness.adjacency_view) ->
      if
        a.av_truth_down && a.av_up
        && (not a.av_suppressed)
        && a.av_stable_rounds >= detect_rounds
      then
        push
          {
            switch = Some a.av_watcher;
            mc = None;
            law = "hello-detect";
            detail =
              Printf.sprintf
                "adjacency to %d truth-down for %d hello rounds (bound %d) \
                 but still believed up"
                a.av_peer a.av_stable_rounds detect_rounds;
          })
    adjacencies;
  List.rev !out

let check_health_terminal ~suppressed switches =
  match suppressed with
  | [] -> []
  | _ ->
    let out = ref [] in
    Array.iteri
      (fun id sw ->
        List.iter
          (fun (s : Switch.mc_snapshot) ->
            List.iter
              (fun (u, v) ->
                if Mctree.Tree.mem_edge s.snap_topology u v then
                  out :=
                    {
                      switch = Some id;
                      mc = Some s.snap_mc;
                      law = "suppress-install";
                      detail =
                        Printf.sprintf
                          "installed tree uses damping-suppressed link \
                           (%d, %d)"
                          u v;
                    }
                    :: !out)
              suppressed)
          (Switch.snapshots sw))
      switches;
    List.rev !out

let check_terminal ~graph ~truth switches =
  let out = ref [] in
  let push x = out := x :: !out in
  let viol ?switch ?mc law detail = push { switch; mc; law; detail } in
  List.iter
    (fun mc ->
      let truth_members =
        match List.find_opt (fun (m, _) -> Dgmc.Mc_id.equal m mc) truth with
        | Some (_, members) -> members
        | None -> Dgmc.Member.empty
      in
      (* Per-switch terminal laws, and gather the holders of state. *)
      let holders = ref [] in
      Array.iteri
        (fun id sw ->
          if not (Switch.quiescent sw mc) then
            viol ~switch:id ~mc "quiescent"
              "terminal state but mailbox or computation still pending";
          match
            List.find_opt
              (fun (s : Switch.mc_snapshot) -> Dgmc.Mc_id.equal s.snap_mc mc)
              (Switch.snapshots sw)
          with
          | None -> ()
          | Some s ->
            holders := (id, s) :: !holders;
            if not (Timestamp.equal s.snap_r s.snap_e) then
              viol ~switch:id ~mc "terminal-R=E"
                (Printf.sprintf
                   "promised events never accounted: R=%s, E=%s"
                   (stamp s.snap_r) (stamp s.snap_e));
            if
              s.snap_flag
              && Timestamp.geq s.snap_r s.snap_e
              && Timestamp.gt s.snap_r s.snap_c
            then
              viol ~switch:id ~mc "pending-duty"
                (Printf.sprintf
                   "make_proposal_flag set with R=%s > C=%s and nothing in \
                    flight: a recomputation is owed but will never run"
                   (stamp s.snap_r) (stamp s.snap_c)))
        switches;
      let holders = List.rev !holders in
      (* Network-wide agreement among holders. *)
      (match holders with
      | [] ->
        if not (Dgmc.Member.is_empty truth_members) then
          viol ~mc "truth-members"
            (Format.asprintf
               "no switch holds state but the real member set is %a"
               Dgmc.Member.pp truth_members)
      | (id0, s0) :: rest ->
        List.iter
          (fun (id, (s : Switch.mc_snapshot)) ->
            if not (Dgmc.Member.equal s.snap_members s0.snap_members) then
              viol ~switch:id ~mc "agreement-members"
                (Format.asprintf "member list %a disagrees with switch %d's %a"
                   Dgmc.Member.pp s.snap_members id0 Dgmc.Member.pp
                   s0.snap_members);
            if not (Mctree.Tree.equal s.snap_topology s0.snap_topology) then
              viol ~switch:id ~mc "agreement-topology"
                (Format.asprintf "topology %a disagrees with switch %d's %a"
                   Mctree.Tree.pp s.snap_topology id0 Mctree.Tree.pp
                   s0.snap_topology))
          rest;
        if not (Dgmc.Member.equal s0.snap_members truth_members) then
          viol ~switch:id0 ~mc "truth-members"
            (Format.asprintf "agreed member list %a but the real one is %a"
               Dgmc.Member.pp s0.snap_members Dgmc.Member.pp truth_members);
        if not (Dgmc.Member.is_empty truth_members) then begin
          if not (Mctree.Tree.is_valid_mc_topology graph s0.snap_topology)
          then
            viol ~switch:id0 ~mc "valid-topology"
              (Format.asprintf
                 "agreed topology %a is not a valid embedded spanning tree"
                 Mctree.Tree.pp s0.snap_topology);
          let term_ids =
            Mctree.Tree.Int_set.elements
              (Mctree.Tree.terminals s0.snap_topology)
          in
          if term_ids <> Dgmc.Member.ids truth_members then
            viol ~switch:id0 ~mc "terminals-match"
              (Format.asprintf
                 "agreed topology terminals %a do not match the real member \
                  set %a"
                 (Format.pp_print_list
                    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
                    Format.pp_print_int)
                 term_ids Dgmc.Member.pp truth_members)
        end))
    (all_mcs ~truth switches);
  List.rev !out
