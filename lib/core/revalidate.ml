let may_repropose (st : Mc_state.t) =
  st.triggered = None && Timestamp.geq st.r st.e

let contradicted image (st : Mc_state.t) =
  (not (Member.is_empty st.members))
  && ((not (Mctree.Tree.is_valid_mc_topology image st.topology))
     || not
          (List.equal Int.equal
             (Mctree.Tree.terminals st.topology)
             (Member.ids st.members)))

let installs image mcs repropose =
  List.iter
    (fun mc ->
      match Mc_id.Tbl.find_opt mcs mc with
      | Some st when may_repropose st && contradicted image st ->
        repropose mc st
      | Some _ | None -> ())
    (Mc_id.sorted mcs)
