type t = (Timestamp.t * Timestamp.t * Timestamp.t) Mc_id.Tbl.t

let resume t mc (st : Mc_state.t) =
  match Mc_id.Tbl.find_opt t mc with
  | Some (r, e, seen) ->
    st.r <- r;
    st.e <- Timestamp.merge e r;
    st.membership_seen <- seen
  | None -> ()

let capture t mc (st : Mc_state.t) =
  Mc_id.Tbl.replace t mc
    ( Timestamp.freeze st.r,
      Timestamp.freeze st.e,
      Timestamp.freeze st.membership_seen )

(* An empty snapshot up to date with the tombstone's E agrees the MC is
   gone and knows every event its stamp covers. *)
let absorb t (lsa : Mc_lsa.t) =
  match (Mc_id.Tbl.find_opt t lsa.mc, lsa.members) with
  | Some (r, e, seen), Some snapshot
    when Member.is_empty snapshot && Timestamp.geq lsa.stamp e ->
    Mc_id.Tbl.replace t lsa.mc
      ( Timestamp.merge r lsa.stamp,
        Timestamp.merge e lsa.stamp,
        Timestamp.merge seen lsa.stamp )
  | (Some _ | None), _ -> ()

let exports t ~live acc =
  Mc_id.Tbl.fold
    (fun mc (r, e, seen) acc ->
      if Mc_id.Tbl.mem live mc then acc
      else
        { Resync.exp_mc = mc; exp_r = r; exp_e = e;
          exp_c = Timestamp.zero (Timestamp.size r); exp_members = Member.empty;
          exp_membership_seen = seen; exp_topology = Mctree.Tree.empty }
        :: acc)
    t acc
