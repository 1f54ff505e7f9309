type violation = {
  switch : int option;
  mc : Mc_id.t option;
  law : string;
  detail : string;
}

let pp ppf v =
  Format.fprintf ppf "[%s]" v.law;
  (match v.switch with
  | Some s -> Format.fprintf ppf " switch %d" s
  | None -> Format.fprintf ppf " network");
  (match v.mc with
  | Some m -> Format.fprintf ppf " %a" Mc_id.pp m
  | None -> ());
  Format.fprintf ppf ": %s" v.detail

let to_string v = Format.asprintf "%a" pp v

let stamp ts = Format.asprintf "%a" Timestamp.pp ts

(* The first switch (array position) holding state for [mc], with its
   member list and topology: the reference every other holder and the
   ground truth are compared against. *)
let first_holder mc switches =
  let n = Array.length switches in
  let rec go i =
    if i >= n then None
    else
      let sw = switches.(i) in
      match (Switch.members sw mc, Switch.topology sw mc) with
      | Some m, Some tree -> Some (i, m, tree)
      | _ -> go (i + 1)
  in
  go 0

let agreement mc switches =
  let out = ref [] in
  let viol sw law detail =
    out := { switch = Some (Switch.id sw); mc = Some mc; law; detail } :: !out
  in
  Array.iter
    (fun sw ->
      if not (Switch.quiescent sw mc) then
        viol sw "quiescent"
          "terminal state but mailbox or computation still pending";
      match Switch.stamps sw mc with
      | None -> ()
      | Some (r, e, c) ->
        if not (Timestamp.equal r e) then
          viol sw "terminal-R=E"
            (Printf.sprintf "promised events never accounted: R=%s, E=%s"
               (stamp r) (stamp e));
        if Switch.proposal_flag sw mc && Timestamp.geq r e && Timestamp.gt r c
        then
          viol sw "pending-duty"
            (Printf.sprintf
               "make_proposal_flag set with R=%s > C=%s and nothing in \
                flight: a recomputation is owed but will never run"
               (stamp r) (stamp c)))
    switches;
  (match first_holder mc switches with
  | None -> ()
  | Some (i0, m0, t0) ->
    let id0 = Switch.id switches.(i0) in
    for i = i0 + 1 to Array.length switches - 1 do
      let sw = switches.(i) in
      match (Switch.members sw mc, Switch.topology sw mc) with
      | Some m, Some tree ->
        if not (Member.equal m m0) then
          viol sw "agreement-members"
            (Format.asprintf "member list %a disagrees with switch %d's %a"
               Member.pp m id0 Member.pp m0);
        if not (Mctree.Tree.equal tree t0) then
          viol sw "agreement-topology"
            (Format.asprintf "topology %a disagrees with switch %d's %a"
               Mctree.Tree.pp tree id0 Mctree.Tree.pp t0)
      | _ -> ()
    done);
  List.rev !out

let against_truth ~graph ~members:truth mc switches =
  let out = ref [] in
  let viol switch law detail =
    out := { switch; mc = Some mc; law; detail } :: !out
  in
  (match first_holder mc switches with
  | None ->
    if not (Member.is_empty truth) then
      viol None "truth-members"
        (Format.asprintf "no switch holds state but the real member set is %a"
           Member.pp truth)
  | Some (i0, m0, t0) ->
    let id0 = Some (Switch.id switches.(i0)) in
    if not (Member.equal m0 truth) then
      viol id0 "truth-members"
        (Format.asprintf "agreed member list %a but the real one is %a"
           Member.pp m0 Member.pp truth);
    if not (Member.is_empty truth) then begin
      if not (Mctree.Tree.is_valid_mc_topology graph t0) then
        viol id0 "valid-topology"
          (Format.asprintf
             "agreed topology %a is not a valid embedded spanning tree"
             Mctree.Tree.pp t0);
      let term_ids = Mctree.Tree.terminals t0 in
      if term_ids <> Member.ids truth then
        viol id0 "terminals-match"
          (Format.asprintf
             "agreed topology terminals %a do not match the real member set \
              %a"
             (Format.pp_print_list
                ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
                Format.pp_print_int)
             term_ids Member.pp truth)
    end);
  List.rev !out

let check ~graph ~truth switches =
  let add acc mc =
    if List.exists (Mc_id.equal mc) acc then acc else mc :: acc
  in
  let mcs =
    Array.fold_left
      (fun acc sw -> List.fold_left add acc (Switch.mc_ids sw))
      (List.fold_left (fun acc (mc, _) -> add acc mc) [] truth)
      switches
    |> List.sort Mc_id.compare
  in
  List.concat_map
    (fun mc ->
      let members =
        match List.find_opt (fun (m, _) -> Mc_id.equal m mc) truth with
        | Some (_, members) -> members
        | None -> Member.empty
      in
      agreement mc switches @ against_truth ~graph ~members mc switches)
    mcs

let suppress_install ~suppressed switches =
  List.concat_map
    (fun sw ->
      List.concat_map
        (fun mc ->
          match Switch.topology sw mc with
          | None -> []
          | Some tree ->
            List.filter_map
              (fun (u, v) ->
                if Mctree.Tree.mem_edge tree u v then
                  Some
                    {
                      switch = Some (Switch.id sw);
                      mc = Some mc;
                      law = "suppress-install";
                      detail =
                        Printf.sprintf
                          "installed tree uses damping-suppressed link \
                           (%d, %d)"
                          u v;
                    }
                else None)
              suppressed)
        (Switch.mc_ids sw))
    (Array.to_list switches)
