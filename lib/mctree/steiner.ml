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
    Tree.prune
      (Tree.of_edges ~terminals
         (List.map (fun (e : Net.Graph.edge) -> (e.u, e.v)) (Net.Mst.kruskal sub)))

(* The phase wrapper of both heuristics, closure-free ([f] is a
   top-level function); see Net.Dijkstra.run.  Dijkstra and MST work
   inside shows up as child time of these phases. *)
let in_phase name f g terminals =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph name;
  match f g terminals with
  | r ->
    Metrics.Phase.leave ph;
    r
  | exception e ->
    Metrics.Phase.leave ph;
    raise e

let kmb g terminals = in_phase "mctree.kmb" kmb_impl g terminals

(* The SPH attach loop over arrays.  [near_d.(i)] and [near_v.(i)] are
   terminal [ts.(i)]'s distance to its nearest tree node and that node,
   the smallest id on a tie ([-1]: none reachable yet, [-2]: attached);
   only a node joining the tree updates them.  A path reaches the tree
   only at its end, so its edges' keys [u * n + v] ([u < v]) fit in
   [n - 1] slots; the buffer grows if a rounding tie says otherwise.
   One sort of the keys builds the tree. *)
let attach g terminals =
  let terminals = check_terminals g terminals in
  let n = Net.Graph.n_nodes g and ts = Array.of_list (List.tl terminals) in
  let k = Array.length ts and rs = Array.map (Net.Dijkstra.run g) ts in
  let near_d = Float.Array.make k infinity and near_v = Array.make k (-1) in
  let on_tree = Bytes.make n '\000' in
  let join w =
    if Bytes.get on_tree w = '\000' then begin
      Bytes.set on_tree w '\001';
      for i = 0 to k - 1 do
        let d = rs.(i).dist.(w) and d' = Float.Array.get near_d i in
        if near_v.(i) > -2 && (d < d' || (d = d' && w < near_v.(i))) then begin
          Float.Array.set near_d i d;
          near_v.(i) <- w
        end
      done
    end
  in
  let keys = ref (Array.make (Int.max 1 (n - 1)) 0) and m = ref 0 in
  join (List.hd terminals);
  for _ = 1 to k do
    let b = ref (-1) in
    for i = 0 to k - 1 do
      let d = Float.Array.get near_d i in
      if near_v.(i) >= 0 && (!b < 0 || d < Float.Array.get near_d !b) then b := i
    done;
    if !b < 0 then failwith "Steiner.sph: terminals not mutually reachable";
    let t = ts.(!b) and pred = rs.(!b).pred and x = ref near_v.(!b) in
    near_v.(!b) <- -2;
    while !x <> t do
      let p = pred.(!x) in
      if !m = Array.length !keys then keys := Array.append !keys !keys;
      !keys.(!m) <- (Int.min p !x * n) + Int.max p !x;
      incr m;
      join p;
      x := p
    done
  done;
  (* No non-terminal leaf is left to prune: every such node is inside a
     shortest path, which is simple. *)
  Tree.of_edge_keys ~n ~terminals !keys !m

let sph g terminals = in_phase "mctree.sph" attach g terminals

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
