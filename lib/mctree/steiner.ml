let check_terminals g terminals =
  if terminals = [] then failwith "Steiner: empty terminal set";
  let n = Net.Graph.n_nodes g in
  List.iter
    (fun x ->
      if x < 0 || x >= n then
        failwith (Printf.sprintf "Steiner: terminal %d out of range" x))
    terminals;
  let sorted = List.sort_uniq Int.compare terminals in
  if List.length sorted <> List.length terminals then
    failwith "Steiner: duplicate terminals";
  sorted

(* Metric closure among terminals: pairwise shortest-path distances, plus
   the per-terminal Dijkstra results for later path expansion. *)
let closure g tarray =
  let k = Array.length tarray in
  let sssp = Array.map (fun t -> Net.Dijkstra.run g t) tarray in
  let matrix = Array.make_matrix k k infinity in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if i <> j then begin
        matrix.(i).(j) <- sssp.(i).dist.(tarray.(j));
        if not (Float.is_finite matrix.(i).(j)) then
          failwith "Steiner: terminals not mutually reachable"
      end
    done
  done;
  (sssp, matrix)

let kmb_impl g terminals =
  let terminals = check_terminals g terminals in
  match terminals with
  | [ only ] -> Tree.of_terminals [ only ]
  | _ ->
    let tarray = Array.of_list terminals in
    let sssp, matrix = closure g tarray in
    (* MST of the closure, each edge expanded into a real shortest path. *)
    let closure_mst = Net.Mst.mst_of_matrix matrix in
    let expanded =
      List.fold_left
        (fun tree (i, j, _) ->
          match
            Net.Dijkstra.path_of_result sssp.(i) ~src:tarray.(i) ~dst:tarray.(j)
          with
          | Some p -> Tree.add_path tree p
          | None -> assert false (* closure checked reachability *))
        (Tree.of_terminals terminals) closure_mst
    in
    (* The union of paths may contain cycles: take an MST of the induced
       subgraph, then prune non-terminal leaves. *)
    let sub = Net.Graph.create (Net.Graph.n_nodes g) in
    List.iter
      (fun (u, v) -> Net.Graph.add_edge sub u v ~weight:(Net.Graph.weight g u v))
      (Tree.edges expanded);
    let tree =
      List.fold_left
        (fun t (e : Net.Graph.edge) -> Tree.add_edge t e.u e.v)
        (Tree.of_terminals terminals)
        (Net.Mst.kruskal sub)
    in
    Tree.prune tree

(* Closure-free phase wrappers; see Net.Dijkstra.run.  Dijkstra and MST
   work inside shows up as child time of these phases. *)
let kmb g terminals =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "mctree.kmb";
  match kmb_impl g terminals with
  | r ->
    Metrics.Phase.leave ph;
    r
  | exception e ->
    Metrics.Phase.leave ph;
    raise e

let sph_impl g terminals =
  let terminals = check_terminals g terminals in
  match terminals with
  | [] -> assert false (* check_terminals rejects the empty set *)
  | [ only ] -> Tree.of_terminals [ only ]
  | seed :: rest ->
    (* One Dijkstra per non-seed terminal, run once up front: the graph
       is fixed for the call, so each attachment step only rescans the
       stored distances against the grown tree. *)
    let rec attach tree in_tree = function
      | [] -> Tree.prune tree
      | remaining ->
        (* Attach the remaining terminal closest to the current tree; tree
           nodes act as targets. *)
        let best = ref None in
        List.iter
          (fun ((_, (r : Net.Dijkstra.result)) as entry) ->
            Tree.Int_set.iter
              (fun v ->
                let d = r.dist.(v) in
                let better =
                  match !best with Some (_, _, d') -> d < d' | None -> true
                in
                if Float.is_finite d && better then best := Some (entry, v, d))
              in_tree)
          remaining;
        (match !best with
        | None -> failwith "Steiner.sph: terminals not mutually reachable"
        | Some ((t, r), v, _) ->
          let path = Option.get (Net.Dijkstra.path_of_result r ~src:t ~dst:v) in
          attach (Tree.add_path tree path)
            (List.fold_left (fun s x -> Tree.Int_set.add x s) in_tree path)
            (List.filter (fun (x, _) -> x <> t) remaining))
    in
    attach (Tree.of_terminals terminals) (Tree.Int_set.singleton seed)
      (List.map (fun t -> (t, Net.Dijkstra.run g t)) rest)

let sph g terminals =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "mctree.sph";
  match sph_impl g terminals with
  | r ->
    Metrics.Phase.leave ph;
    r
  | exception e ->
    Metrics.Phase.leave ph;
    raise e

let lower_bound g terminals =
  let terminals = check_terminals g terminals in
  match terminals with
  | [ _ ] -> 0.0
  | _ ->
    let tarray = Array.of_list terminals in
    let _, matrix = closure g tarray in
    let max_pair = ref 0.0 in
    Array.iter
      (Array.iter (fun d -> if Float.is_finite d && d > !max_pair then max_pair := d))
      matrix;
    let mst_cost =
      List.fold_left
        (fun acc (_, _, w) -> acc +. w)
        0.0
        (Net.Mst.mst_of_matrix matrix)
    in
    Float.max !max_pair (mst_cost /. 2.0)
