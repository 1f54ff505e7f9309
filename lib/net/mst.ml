let sorted_edges edges =
  List.sort
    (fun (a : Graph.edge) b ->
      let c = Float.compare a.weight b.weight in
      match c with
      | 0 -> (
        match Int.compare a.u b.u with 0 -> Int.compare a.v b.v | c -> c)
      | c -> c)
    edges

let kruskal_impl g =
  let uf = Union_find.create (Graph.n_nodes g) in
  List.filter
    (fun (e : Graph.edge) -> Union_find.union uf e.u e.v)
    (sorted_edges (Graph.edges g))

(* Closure-free phase wrapper; see Dijkstra.run. *)
let kruskal g =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "net.mst";
  match kruskal_impl g with
  | r ->
    Metrics.Phase.leave ph;
    r
  | exception e ->
    Metrics.Phase.leave ph;
    raise e

let mst_of_matrix_impl m =
  let n = Array.length m in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Float.is_finite m.(u).(v) then
        edges := ({ u; v; weight = m.(u).(v) } : Graph.edge) :: !edges
    done
  done;
  let uf = Union_find.create n in
  List.filter_map
    (fun (e : Graph.edge) ->
      if Union_find.union uf e.u e.v then Some (e.u, e.v, e.weight) else None)
    (sorted_edges !edges)

let mst_of_matrix m =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "net.mst";
  match mst_of_matrix_impl m with
  | r ->
    Metrics.Phase.leave ph;
    r
  | exception e ->
    Metrics.Phase.leave ph;
    raise e
