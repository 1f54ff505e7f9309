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
  let alone = (not (Tree.has_edges tree)) && Tree.Int_set.cardinal (Tree.terminals tree) = 1 in
  if alone || not (Tree.Int_set.is_empty (Tree.neighbors tree x)) then tree
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

(* The fresh tree's cost is read off the SPH kernel's edges: no tree is
   built. *)
let drift g tree =
  let terminals = Tree.Int_set.elements (Tree.terminals tree) in
  let fresh = if List.length terminals < 2 then 0.0 else Steiner.sph_cost g terminals in
  if fresh <= 0.0 then 1.0 else Tree.cost g tree /. fresh

let needs_recompute ~threshold g tree = drift g tree > threshold
