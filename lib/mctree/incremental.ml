let graft g tree x =
  (* Cheapest live path from [x] to any node of [tree] other than [x]
     itself ([x] may already be recorded as a terminal): the nearest
     such node, the smallest id on a tie. *)
  let r = Net.Dijkstra.run g x in
  let nearest = ref (-1) in
  Tree.Int_set.iter
    (fun v ->
      let d = r.dist.(v) in
      if v <> x && Float.is_finite d && (!nearest < 0 || d < r.dist.(!nearest))
      then nearest := v)
    (Tree.Int_set.remove x (Tree.nodes tree));
  let path =
    if !nearest < 0 then None
    else Net.Dijkstra.path_of_result r ~src:x ~dst:!nearest
  in
  match path with
  | Some path -> Tree.add_path tree path
  | None -> failwith "Incremental.join: member cannot reach the tree"

let join g tree x =
  let tree = Tree.add_terminal tree x in
  if Tree.Int_set.is_empty (Tree.nodes (Tree.remove_terminal tree x)) then tree
  else if Tree.mem_node (Tree.remove_terminal tree x) x then tree
  else graft g tree x

let leave _g tree x = Tree.prune (Tree.remove_terminal tree x)

(* The connected fragment of [t]'s edge set containing [seed], declared
   with [seed] as its only terminal so that {!graft} targets genuinely
   connected nodes only. *)
let fragment t seed =
  let keep = Tree.Int_set.of_list (Tree.dfs_order t ~root:seed) in
  List.fold_left
    (fun acc (u, v) ->
      if Tree.Int_set.mem u keep && Tree.Int_set.mem v keep then
        Tree.add_edge acc u v
      else acc)
    (Tree.of_terminals [ seed ])
    (Tree.edges t)

(* Drop the dead edges and rebuild the tree from the live fragment
   holding the least terminal. *)
let rebuild g tree =
  let live =
    List.fold_left
      (fun t (u, v) ->
        if Net.Graph.link_is_up g u v then t else Tree.remove_edge t u v)
      tree (Tree.edges tree)
  in
  let terminals = Tree.Int_set.elements (Tree.terminals live) in
  match terminals with
  | [] -> Some Tree.empty
  | [ only ] -> Some (Tree.of_terminals [ only ])
  | seed :: rest -> (
    (* Keep the fragment still holding [seed]; re-attach every terminal
       that fell off via its cheapest live path to the growing tree.  A
       nearest-tree-node shortest path touches the tree only at its
       endpoint (weights are positive), so no cycles arise. *)
    try
      let result =
        List.fold_left
          (fun t x ->
            let t = if Tree.mem_node t x then t else graft g t x in
            Tree.add_terminal t x)
          (fragment live seed) rest
      in
      let result = Tree.prune (Tree.with_terminals result terminals) in
      if Tree.is_valid_mc_topology g result then Some result
      else Some (Steiner.sph g terminals)
    with Failure _ -> (
      try Some (Steiner.sph g terminals) with Failure _ -> None))

(* An intact tree needs no rebuild: its live fragment through the least
   terminal is all of it, every terminal is already on it, and pruning
   keeps it valid, so the rebuild would return [Tree.prune tree]. *)
let repair g tree =
  if
    Tree.Int_set.cardinal (Tree.terminals tree) >= 2
    && Tree.is_valid_mc_topology g tree
  then Some (Tree.prune tree)
  else rebuild g tree

let drift g tree =
  let terminals = Tree.Int_set.elements (Tree.terminals tree) in
  if List.length terminals < 2 then 1.0
  else begin
    let fresh = Steiner.sph g terminals in
    let fresh_cost = Tree.cost g fresh in
    if fresh_cost <= 0.0 then 1.0 else Tree.cost g tree /. fresh_cost
  end

let needs_recompute ~threshold g tree = drift g tree > threshold
