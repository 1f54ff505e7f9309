(* Restrict member ids to the image component containing the computing
   switch, so that a partitioned network still yields a usable topology
   for the side this switch lives on. *)
let reachable_subset image ~self ids =
  let ok = Net.Bfs.reachable image self in
  List.filter (fun x -> ok.(x)) ids

let scratch config kind image members ~self =
  let ids = Member.ids members in
  match ids with
  | [] -> Mctree.Tree.empty
  | _ -> (
    match (kind : Mc_id.kind) with
    | Symmetric | Receiver_only -> (
      try Mctree.Steiner.sph image ids
      with Failure _ -> (
        match reachable_subset image ~self ids with
        | [] -> Mctree.Tree.empty
        | reachable -> Mctree.Steiner.sph image reachable))
    | Asymmetric -> (
      let root =
        match Member.senders members with r :: _ -> r | [] -> List.hd ids
      in
      (* Every member is a terminal: secondary senders reach the shared
         source-rooted tree over shortest paths too, or they could not
         inject traffic into it (found by the protocol fuzzer: a
         sender-only second member used to be left off the tree, which
         the agreement check rightly rejects).  The pre-fix behaviour —
         terminals drawn from the receiver roles only — stays available
         behind [inject = Some Skip_secondary_senders] so the guided
         scenario search can re-derive the minimal counterexample. *)
      let receivers =
        if Config.injects config Config.Skip_secondary_senders then
          List.filter (fun x -> x <> root) (Member.receivers members)
        else List.filter (fun x -> x <> root) ids
      in
      try Mctree.Spt.source_rooted image ~root ~receivers
      with Failure _ -> (
        (* Partition: root the tree in this switch's component — at the
           surviving sender if there is one, else the smallest member. *)
        match reachable_subset image ~self ids with
        | [] -> Mctree.Tree.empty
        | reachable ->
          let local_root =
            match
              List.filter (fun x -> List.mem x reachable) (Member.senders members)
            with
            | r :: _ -> r
            | [] -> List.hd reachable
          in
          Mctree.Spt.source_rooted image ~root:local_root
            ~receivers:(List.filter (fun x -> x <> local_root) reachable))))

let incremental config kind image members ~self current =
  let ids = Member.ids members in
  let old_ids = Mctree.Tree.Int_set.elements (Mctree.Tree.terminals current) in
  let leavers = List.filter (fun x -> not (Member.mem members x)) old_ids in
  let joiners = List.filter (fun x -> not (List.mem x old_ids)) ids in
  let after_leaves =
    List.fold_left (fun t x -> Mctree.Incremental.leave image t x) current leavers
  in
  match Mctree.Incremental.repair image after_leaves with
  | None -> scratch config kind image members ~self
  | Some repaired -> (
    try
      let grown =
        List.fold_left (fun t x -> Mctree.Incremental.join image t x) repaired joiners
      in
      if
        Mctree.Tree.is_valid_mc_topology image grown
        && not
             (Mctree.Incremental.needs_recompute
                ~threshold:config.Config.drift_threshold image grown)
      then grown
      else scratch config kind image members ~self
    with Failure _ -> scratch config kind image members ~self)

let topology_impl config kind image members ~self ~current =
  if Member.is_empty members then Mctree.Tree.empty
  else
    match (kind : Mc_id.kind) with
    | Asymmetric -> scratch config kind image members ~self
    | Symmetric | Receiver_only -> (
      match current with
      | Some cur
        when config.Config.incremental
             && not (Mctree.Tree.Int_set.is_empty (Mctree.Tree.terminals cur)) ->
        incremental config kind image members ~self cur
      | Some _ | None -> scratch config kind image members ~self)

(* Closure-free phase wrapper; see Net.Dijkstra.run.  The tree-kernel
   phases — mctree and net — appear as child time of [dgmc.compute]. *)
let topology config kind image members ~self ~current =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "dgmc.compute";
  match topology_impl config kind image members ~self ~current with
  | r ->
    Metrics.Phase.leave ph;
    r
  | exception e ->
    Metrics.Phase.leave ph;
    raise e
