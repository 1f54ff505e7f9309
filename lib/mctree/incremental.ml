let graft g tree x =
  (* Cheapest live path from [x] to the nearest node of [tree] other than
     [x] itself ([x] may already be recorded as a terminal). *)
  let r = Net.Dijkstra.run g x in
  let v = Tree.nearest r tree ~except:x in
  if v < 0 then failwith "Incremental.join: member cannot reach the tree";
  Tree.add_path tree (Option.get (Net.Dijkstra.path_of_result r ~src:x ~dst:v))

(* Nothing to graft when [x] is already on an edge or is the only node. *)
let join g tree x =
  let tree = Tree.add_terminal tree x in
  let alone = (not (Tree.has_edges tree)) && Tree.n_terminals tree = 1 in
  if alone || not (List.is_empty (Tree.neighbors tree x)) then tree
  else graft g tree x

let leave _g tree x = Tree.prune (Tree.remove_terminal tree x)

(* Drop the dead edges and rebuild the tree from the live fragment
   holding the least terminal. *)
let rebuild g tree =
  let live = Tree.filter_edges (Net.Graph.link_is_up g) tree in
  let terminals = Tree.terminals live in
  match terminals with
  | [] -> Some Tree.empty
  | [ only ] -> Some (Tree.of_terminals [ only ])
  | seed :: rest -> (
    (* Keep the fragment still holding [seed], with [seed] its only
       terminal so that {!graft} targets genuinely connected nodes only;
       re-attach every terminal that fell off via its cheapest live path
       to the growing tree.  A nearest-tree-node shortest path touches
       the tree only at its endpoint (weights are positive), so no
       cycles arise. *)
    try
      let result =
        List.fold_left
          (fun t x ->
            let t = if Tree.mem_node t x then t else graft g t x in
            Tree.add_terminal t x)
          (Tree.fragment live seed) rest
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
  if Tree.n_terminals tree >= 2 && Tree.is_valid_mc_topology g tree then
    Some (Tree.prune tree)
  else rebuild g tree

(* Below two terminals the drift is 1.0 (SPH's tree costs nothing), so
   SPH runs there only for a threshold under 1.0. *)
let recompute ~threshold g tree =
  let terminals = Tree.terminals tree in
  if List.compare_length_with terminals 2 < 0 && 1.0 <= threshold then None
  else begin
    let fresh = Steiner.sph g terminals in
    let cost = Tree.cost g fresh in
    let drift = if cost <= 0.0 then 1.0 else Tree.cost g tree /. cost in
    if drift > threshold then Some fresh else None
  end
