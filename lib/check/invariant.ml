module Timestamp = Dgmc.Timestamp
module Switch = Dgmc.Switch

type violation = Dgmc.Terminal.violation = {
  switch : int option;
  mc : Dgmc.Mc_id.t option;
  law : string;
  detail : string;
}

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
