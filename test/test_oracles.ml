(* Oracle tests: the production algorithms checked against independent
   reference implementations (different algorithm, same answer).

   - Dijkstra vs a Bellman-Ford oracle;
   - Kruskal vs a Prim oracle;
   - the Steiner heuristics vs the EXACT optimum on small instances
     (Hakimi enumeration: the optimal Steiner tree is the cheapest MST
     of an induced subgraph over terminals ∪ S for some Steiner set S);
   - shortest-path first hops vs the distance-decrease characterisation;
   - the flat-array Dijkstra and memoised SPH vs the boxed-heap kernel
     and quadratic SPH they replaced (exact equality, ties included);
   - the Buffer-built renderers of member lists, trees, MC ids and
     membership notes vs the Format printers they replaced (byte
     equality);
   - the churn generator's one-pass bridge filter vs the per-link
     connectivity search it replaced (same links, same order);
   - the union-find tree predicates vs the set-based searches they
     replaced, and incremental repair vs the repair that rebuilt every
     tree (equal trees);
   - the array SPH kernel, its cost, the pred-walk source-rooted tree
     and the set-free incremental join vs the list-based loops they
     replaced (equal trees, bit-equal costs, the same [Failure]s);
   - the two-array tree vs the map-backed tree it replaced, operation
     by operation (equal observations, the same [Invalid_argument]s);
   - the word-parallel hop diameter vs the scalar sweep it replaced, and
     flooding's per-origin duplicate rows vs the hash table they
     replaced (the same verdicts). *)

let check = Alcotest.check

let random_graph seed n =
  Net.Topo_gen.waxman (Sim.Rng.create seed) ~n ~target_degree:3.5 ()

(* ------------------------------------------------------------------ *)
(* Bellman-Ford oracle *)

let bellman_ford g src =
  let n = Net.Graph.n_nodes g in
  let dist = Array.make n infinity in
  dist.(src) <- 0.0;
  for _ = 1 to n - 1 do
    List.iter
      (fun (e : Net.Graph.edge) ->
        if dist.(e.u) +. e.weight < dist.(e.v) then
          dist.(e.v) <- dist.(e.u) +. e.weight;
        if dist.(e.v) +. e.weight < dist.(e.u) then
          dist.(e.u) <- dist.(e.v) +. e.weight)
      (Net.Graph.edges g)
  done;
  dist

let test_dijkstra_vs_bellman_ford () =
  for seed = 1 to 15 do
    let g = random_graph seed 25 in
    let src = seed mod 25 in
    let d = (Net.Dijkstra.run g src).dist in
    let bf = bellman_ford g src in
    Array.iteri
      (fun v dv ->
        if Float.abs (dv -. bf.(v)) > 1e-9 then
          Alcotest.failf "seed %d: dist to %d differs (%.17g vs %.17g)" seed v dv bf.(v))
      d
  done

(* ------------------------------------------------------------------ *)
(* Prim oracle *)

let prim_cost g =
  let n = Net.Graph.n_nodes g in
  let in_tree = Array.make n false in
  let best = Array.make n infinity in
  best.(0) <- 0.0;
  let total = ref 0.0 in
  for _ = 1 to n do
    (* Cheapest fringe node. *)
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not in_tree.(v)) && (!u = -1 || best.(v) < best.(!u)) then u := v
    done;
    let u = !u in
    if Float.is_finite best.(u) then begin
      in_tree.(u) <- true;
      total := !total +. best.(u);
      List.iter
        (fun (v, w) -> if (not in_tree.(v)) && w < best.(v) then best.(v) <- w)
        (Net.Graph.neighbors g u)
    end
  done;
  !total

let test_kruskal_vs_prim () =
  for seed = 1 to 15 do
    let g = random_graph seed 30 in
    let kruskal = Oracle.Mst.cost (Net.Mst.kruskal g) in
    let prim = prim_cost g in
    check Alcotest.(float 1e-9) (Printf.sprintf "seed %d" seed) prim kruskal
  done

(* ------------------------------------------------------------------ *)
(* Exact Steiner oracle (small instances) *)

(* Optimal Steiner tree cost by enumerating Steiner-point sets: for each
   S ⊆ V \ terminals, if G[terminals ∪ S] is connected, its MST is a
   candidate; the optimum is the cheapest candidate (Hakimi 1971). *)
let exact_steiner_cost g terminals =
  let n = Net.Graph.n_nodes g in
  let others =
    List.filter (fun v -> not (List.mem v terminals)) (List.init n (fun i -> i))
  in
  let k = List.length others in
  let best = ref infinity in
  for mask = 0 to (1 lsl k) - 1 do
    let steiner_points =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) others
    in
    let nodes = List.sort Int.compare (terminals @ steiner_points) in
    (* Induced subgraph, relabelled 0..|nodes|-1. *)
    let index = Hashtbl.create 8 in
    List.iteri (fun i v -> Hashtbl.add index v i) nodes;
    let sub = Net.Graph.create (List.length nodes) in
    List.iter
      (fun (e : Net.Graph.edge) ->
        match (Hashtbl.find_opt index e.u, Hashtbl.find_opt index e.v) with
        | Some a, Some b -> Net.Graph.add_edge sub a b ~weight:e.weight
        | _ -> ())
      (Net.Graph.edges g);
    if Net.Bfs.is_connected sub then begin
      let mst = Net.Mst.kruskal sub in
      if List.length mst = List.length nodes - 1 then
        best := Float.min !best (Oracle.Mst.cost mst)
    end
  done;
  !best

let test_heuristics_vs_exact_steiner () =
  (* Random small graphs where enumeration is cheap. *)
  for seed = 1 to 12 do
    let g = random_graph seed 9 in
    let rng = Sim.Rng.create (seed * 31) in
    let terminals = Sim.Rng.sample rng 4 (List.init 9 (fun i -> i)) in
    let opt = exact_steiner_cost g (List.sort Int.compare terminals) in
    List.iter
      (fun (name, algo) ->
        let cost = Mctree.Tree.cost g (algo g terminals) in
        if cost +. 1e-9 < opt then
          Alcotest.failf "seed %d: %s beat the optimum?! (%.17g < %.17g)" seed name
            cost opt;
        if cost > (2.0 *. opt) +. 1e-9 then
          Alcotest.failf "seed %d: %s exceeded 2x optimum (%.17g > 2 * %.17g)" seed
            name cost opt)
      [ ("kmb", Mctree.Steiner.kmb); ("sph", Mctree.Steiner.sph) ]
  done

let test_exact_oracle_sanity () =
  (* On the 3x3 grid corners the optimum is known to be 6. *)
  let g = Net.Topo_gen.grid ~rows:3 ~cols:3 () in
  check Alcotest.(float 1e-9) "grid corners optimum" 6.0
    (exact_steiner_cost g [ 0; 2; 6; 8 ]);
  (* Two terminals: optimum = shortest path. *)
  let g2 = random_graph 5 8 in
  check Alcotest.(float 1e-9) "two terminals = shortest path"
    (Oracle.Dijkstra.distance g2 0 7)
    (exact_steiner_cost g2 [ 0; 7 ])

(* ------------------------------------------------------------------ *)
(* Next-hop characterisation *)

let test_next_hop_decreases_distance () =
  (* The first hop h on u's shortest path toward d satisfies
     dist(h, d) = dist(u, d) - w(u, h): the defining property of
     shortest-path forwarding. *)
  for seed = 1 to 8 do
    let g = random_graph seed 20 in
    let dist = Oracle.Dijkstra.all_pairs g in
    for u = 0 to 19 do
      let r = Net.Dijkstra.run g u in
      for d = 0 to 19 do
        if u <> d then
          match Net.Dijkstra.path_of_result r ~src:u ~dst:d with
          | Some (_ :: h :: _) ->
            let expected = dist.(u).(d) -. Net.Graph.weight g u h in
            if Float.abs (dist.(h).(d) -. expected) > 1e-9 then
              Alcotest.failf "seed %d: bad next hop %d->%d via %d" seed u d h
          | _ -> Alcotest.failf "seed %d: unreachable %d->%d" seed u d
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* The map-backed tree *)

(* [Mctree.Tree] as it was before it became two sorted arrays: a
   terminal set and an adjacency map of neighbour sets, each edge under
   both of its ends.  The set-based references below build on it, and
   "array tree equals the map-backed tree" runs every operation on both
   and compares the results. *)
module Map_tree = struct
  module Int_set = Set.Make (Int)
  module Int_map = Map.Make (Int)

  type t = { terminals : Int_set.t; adj : Int_set.t Int_map.t }

  let empty = { terminals = Int_set.empty; adj = Int_map.empty }

  let of_terminals ts = { empty with terminals = Int_set.of_list ts }

  let neighbors t u =
    Option.value ~default:Int_set.empty (Int_map.find_opt u t.adj)

  let attach a b adj =
    Int_map.add a
      (Int_set.add b (Option.value ~default:Int_set.empty (Int_map.find_opt a adj)))
      adj

  let add_edge t u v =
    if u = v then invalid_arg "Tree: self-loop";
    { t with adj = attach u v (attach v u t.adj) }

  let remove_edge t u v =
    let detach a b adj =
      match Int_map.find_opt a adj with
      | None -> adj
      | Some set ->
        let set = Int_set.remove b set in
        if Int_set.is_empty set then Int_map.remove a adj else Int_map.add a set adj
    in
    { t with adj = detach u v (detach v u t.adj) }

  let rec add_path t = function
    | [] | [ _ ] -> t
    | u :: (v :: _ as rest) -> add_path (add_edge t u v) rest

  let add_terminal t x = { t with terminals = Int_set.add x t.terminals }

  let remove_terminal t x = { t with terminals = Int_set.remove x t.terminals }

  let with_terminals t ts = { t with terminals = Int_set.of_list ts }

  let of_edges ~terminals edges =
    List.fold_left (fun t (u, v) -> add_edge t u v) (of_terminals terminals) edges

  let terminals t = Int_set.elements t.terminals

  let nodes t = Int_map.fold (fun u _ acc -> Int_set.add u acc) t.adj t.terminals

  let has_edges t = not (Int_map.is_empty t.adj)

  (* Walking the map ascending and keeping [u < v] lists the pairs in
     ascending order (reversed by the fold). *)
  let edges t =
    List.rev
      (Int_map.fold
         (fun u nbrs acc ->
           Int_set.fold (fun v acc -> if u < v then (u, v) :: acc else acc) nbrs acc)
         t.adj [])

  let mem_edge t u v = Int_set.mem v (neighbors t u)

  let mem_node t x = Int_map.mem x t.adj || Int_set.mem x t.terminals

  let is_terminal t x = Int_set.mem x t.terminals

  let nearest (r : Net.Dijkstra.result) t ~except =
    let best = ref (-1) in
    let consider v =
      let d = r.dist.(v) and near = if !best < 0 then infinity else r.dist.(!best) in
      if v <> except && (d < near || (d = near && v < !best)) then best := v
    in
    Int_map.iter (fun u _ -> consider u) t.adj;
    Int_set.iter consider t.terminals;
    !best

  let cost g t =
    List.fold_left (fun acc (u, v) -> acc +. Net.Graph.weight g u v) 0.0 (edges t)

  let is_embedded g t =
    List.for_all (fun (u, v) -> Net.Graph.link_is_up g u v) (edges t)

  let prune t =
    let rec go t =
      let removable =
        Int_map.fold
          (fun u nbrs acc ->
            if Int_set.cardinal nbrs <= 1 && not (Int_set.mem u t.terminals) then
              u :: acc
            else acc)
          t.adj []
      in
      if removable = [] then t
      else
        go
          (List.fold_left
             (fun t u -> Int_set.fold (fun v t -> remove_edge t u v) (neighbors t u) t)
             t removable)
    in
    go t

  let dfs_order t ~root =
    let visited = ref Int_set.empty in
    let order = ref [] in
    let rec visit u =
      if not (Int_set.mem u !visited) then begin
        visited := Int_set.add u !visited;
        order := u :: !order;
        Int_set.iter visit (neighbors t u)
      end
    in
    visit root;
    List.rev !order

  let compare a b =
    match Int_set.compare a.terminals b.terminals with
    | 0 -> List.compare Mctree.Tree.compare_edge (edges a) (edges b)
    | c -> c

  let fingerprint t =
    let ints sep f l = String.concat sep (List.map f l) in
    Printf.sprintf "T{%s|%s}"
      (ints "," (fun (u, v) -> Printf.sprintf "%d-%d" u v) (edges t))
      (ints "," string_of_int (terminals t))

  let of_tree t =
    of_edges ~terminals:(Mctree.Tree.terminals t) (Mctree.Tree.edges t)

  let to_tree t = Mctree.Tree.of_edges ~terminals:(terminals t) (edges t)
end

(* Register programs over three trees, [dst := act src], each run on
   the array tree and on the map-backed tree.  Nodes 0-7: duplicate
   edges, cycles and forests are common, terminals may sit off every
   edge, removals often miss, and about one edge in ten is a self-loop,
   which both reject. *)
type tree_act =
  | Of_edges of int list * (int * int) list
  | Add_edge of int * int
  | Remove_edge of int * int
  | Add_path of int list
  | Add_terminal of int
  | Remove_terminal of int
  | With_terminals of int list
  | Prune
  | Fragment of int
  | Filter_edges of int  (** keep the edges with [(u + v) mod 3 <> k] *)

type tree_op = { dst : int; src : int; act : tree_act }

let tree_nodes = 8

let print_tree_op { dst; src; act } =
  let ints l = String.concat "," (List.map string_of_int l) in
  let pairs l =
    String.concat "," (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) l)
  in
  let body =
    match act with
    | Of_edges (ts, es) -> Printf.sprintf "of_edges [%s] [%s]" (ints ts) (pairs es)
    | Add_edge (u, v) -> Printf.sprintf "add_edge %d %d" u v
    | Remove_edge (u, v) -> Printf.sprintf "remove_edge %d %d" u v
    | Add_path p -> Printf.sprintf "add_path [%s]" (ints p)
    | Add_terminal x -> Printf.sprintf "add_terminal %d" x
    | Remove_terminal x -> Printf.sprintf "remove_terminal %d" x
    | With_terminals l -> Printf.sprintf "with_terminals [%s]" (ints l)
    | Prune -> "prune"
    | Fragment x -> Printf.sprintf "fragment %d" x
    | Filter_edges k -> Printf.sprintf "filter_edges %d" k
  in
  Printf.sprintf "r%d := %s r%d" dst body src

let tree_ops_gen =
  QCheck2.Gen.(
    let reg = int_range 0 2 and node = int_range 0 (tree_nodes - 1) in
    let edge =
      frequency
        [
          ( 9,
            map2
              (fun u k -> (u, (u + k) mod tree_nodes))
              node
              (int_range 1 (tree_nodes - 1)) );
          (1, map (fun u -> (u, u)) node);
        ]
    in
    let nodes = list_size (int_range 0 5) node in
    let act =
      frequency
        [
          ( 1,
            map2
              (fun ts es -> Of_edges (ts, es))
              nodes
              (list_size (int_range 0 9) edge) );
          (6, map (fun (u, v) -> Add_edge (u, v)) edge);
          (3, map (fun (u, v) -> Remove_edge (u, v)) edge);
          (2, map (fun p -> Add_path p) nodes);
          (3, map (fun x -> Add_terminal x) node);
          (2, map (fun x -> Remove_terminal x) node);
          (1, map (fun l -> With_terminals l) nodes);
          (2, return Prune);
          (1, map (fun x -> Fragment x) node);
          (1, map (fun k -> Filter_edges k) (int_range 0 2));
        ]
    in
    list_size (int_range 1 40) (map3 (fun dst src act -> { dst; src; act }) reg reg act))

let apply_tree act t =
  let module T = Mctree.Tree in
  match act with
  | Of_edges (terminals, edges) -> T.of_edges ~terminals edges
  | Add_edge (u, v) -> T.add_path t [ u; v ]
  | Remove_edge (u, v) ->
    let lo = Int.min u v and hi = Int.max u v in
    T.filter_edges (fun a b -> a <> lo || b <> hi) t
  | Add_path p -> T.add_path t p
  | Add_terminal x -> T.add_terminal t x
  | Remove_terminal x -> T.remove_terminal t x
  | With_terminals l -> T.with_terminals t l
  | Prune -> T.prune t
  | Fragment x -> T.fragment t x
  | Filter_edges k -> T.filter_edges (fun u v -> (u + v) mod 3 <> k) t

(* [fragment] as [Incremental] built it, by a depth-first search and an
   edge added at a time, and the filter as [Incremental.rebuild] made
   it, an edge removed at a time. *)
let apply_map act t =
  let module T = Map_tree in
  match act with
  | Of_edges (terminals, edges) -> T.of_edges ~terminals edges
  | Add_edge (u, v) -> T.add_edge t u v
  | Remove_edge (u, v) -> T.remove_edge t u v
  | Add_path p -> T.add_path t p
  | Add_terminal x -> T.add_terminal t x
  | Remove_terminal x -> T.remove_terminal t x
  | With_terminals l -> T.with_terminals t l
  | Prune -> T.prune t
  | Fragment x ->
    let keep = T.Int_set.of_list (T.dfs_order t ~root:x) in
    List.fold_left
      (fun acc (u, v) ->
        if T.Int_set.mem u keep && T.Int_set.mem v keep then T.add_edge acc u v
        else acc)
      (T.of_terminals [ x ]) (T.edges t)
  | Filter_edges k ->
    List.fold_left
      (fun acc (u, v) -> if (u + v) mod 3 <> k then acc else T.remove_edge acc u v)
      t (T.edges t)

(* Distinct, unround weights, so a different summation order would show
   in a cost's bits. *)
let tree_graph =
  let g = Net.Graph.create tree_nodes in
  for u = 0 to tree_nodes - 1 do
    for v = u + 1 to tree_nodes - 1 do
      Net.Graph.add_edge g u v ~weight:(1.0 /. float_of_int (3 + (u * 7) + (v * 13)))
    done
  done;
  g

(* Distances from 0 on a unit-weight ring of six, where equal distances
   are common, with nodes 6 and 7 out of reach. *)
let tree_distances =
  let g = Net.Graph.create tree_nodes in
  for u = 0 to 5 do
    Net.Graph.add_edge g u ((u + 1) mod 6) ~weight:1.0
  done;
  Net.Dijkstra.run g 0

(* Every observation of the array tree [t] equals the map-backed [m]'s,
   node queries over 0-8 included. *)
let tree_agrees t m =
  let module T = Mctree.Tree in
  let edges = Map_tree.edges m and range = List.init (tree_nodes + 1) Fun.id in
  List.equal (fun (a, b) (c, d) -> a = c && b = d) (T.edges t) edges
  && List.equal Int.equal (T.terminals t) (Map_tree.terminals m)
  && String.equal (T.fingerprint t) (Map_tree.fingerprint m)
  && T.n_terminals t = List.length (Map_tree.terminals m)
  && Bool.equal (T.has_edges t) (Map_tree.has_edges m)
  && Int64.equal
       (Int64.bits_of_float (T.cost tree_graph t))
       (Int64.bits_of_float (Map_tree.cost tree_graph m))
  && List.for_all
       (fun x ->
         List.equal Int.equal (T.neighbors t x)
           (Map_tree.Int_set.elements (Map_tree.neighbors m x))
         && Bool.equal (T.mem_node t x) (Map_tree.mem_node m x)
         && Bool.equal (T.is_terminal t x) (Map_tree.is_terminal m x)
         && T.nearest tree_distances t ~except:x
            = Map_tree.nearest tree_distances m ~except:x
         && List.for_all
              (fun y -> Bool.equal (T.mem_edge t x y) (Map_tree.mem_edge m x y))
              range)
       range

let run_tree_ops ops =
  let regs = Array.make 3 Mctree.Tree.empty and refs = Array.make 3 Map_tree.empty in
  let sign c = Int.compare c 0 in
  let compares i =
    List.for_all
      (fun j ->
        sign (Mctree.Tree.compare regs.(i) regs.(j))
        = sign (Map_tree.compare refs.(i) refs.(j))
        && Bool.equal
             (Mctree.Tree.equal regs.(i) regs.(j))
             (Map_tree.compare refs.(i) refs.(j) = 0))
      [ 0; 1; 2 ]
  in
  List.for_all
    (fun { dst; src; act } ->
      let result f x =
        match f act x with v -> Ok v | exception Invalid_argument m -> Error m
      in
      (match (result apply_tree regs.(src), result apply_map refs.(src)) with
      | Ok t, Ok m ->
        regs.(dst) <- t;
        refs.(dst) <- m;
        true
      | Error a, Error b -> String.equal a b
      | Ok _, Error _ | Error _, Ok _ -> false)
      && tree_agrees regs.(dst) refs.(dst)
      && compares dst)
    ops

let prop_tree_vs_map_tree =
  QCheck2.Test.make ~name:"array tree equals the map-backed tree" ~count:500
    ~print:(fun ops -> String.concat "; " (List.map print_tree_op ops))
    tree_ops_gen run_tree_ops

(* ------------------------------------------------------------------ *)
(* Differential oracles: the flat-array kernel and the memoised SPH
   against the boxed-heap Dijkstra and quadratic SPH they replaced,
   kept verbatim.  Equality is exact — same distances, same
   predecessors, same trees — so any change in tie order shows. *)

(* The oracle's heap: a binary heap ordered by a compare closure.  Its
   sift rules (strict [< 0] comparisons, left child before right, last
   slot moved to the root on pop) fix the order in which equal-distance
   nodes settle, and [Net.Dijkstra]'s flat-array heap must match them. *)
module Heap = struct
  type 'a t = {
    cmp : 'a -> 'a -> int;
    mutable data : 'a array;
    mutable size : int;
  }

  let create ~cmp = { cmp; data = [||]; size = 0 }

  let grow h x =
    (* The array slots beyond [size] hold arbitrary previously-stored values;
       [x] is only used to seed a fresh backing array. *)
    let capacity = Array.length h.data in
    if h.size = capacity then
      if capacity = 0 then h.data <- Array.make 8 x
      else begin
        let data = Array.make (2 * capacity) x in
        Array.blit h.data 0 data 0 capacity;
        h.data <- data
      end

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.cmp h.data.(i) h.data.(parent) < 0 then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < h.size && h.cmp h.data.(left) h.data.(!smallest) < 0 then
      smallest := left;
    if right < h.size && h.cmp h.data.(right) h.data.(!smallest) < 0 then
      smallest := right;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let add h x =
    grow h x;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        sift_down h 0
      end;
      Some top
    end
end

let reference_dijkstra g src =
  let n = Net.Graph.n_nodes g in
  let dist = Array.make n infinity in
  let pred = Array.make n None in
  let settled = Array.make n false in
  dist.(src) <- 0.0;
  let heap = Heap.create ~cmp:(fun (da, _) (db, _) -> Float.compare da db) in
  Heap.add heap (0.0, src);
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
      if not settled.(u) then begin
        settled.(u) <- true;
        let relax (v, w) =
          let candidate = d +. w in
          if candidate < dist.(v) then begin
            dist.(v) <- candidate;
            pred.(v) <- Some u;
            Heap.add heap (candidate, v)
          end
        in
        List.iter relax (Net.Graph.neighbors g u)
      end;
      loop ()
  in
  loop ();
  (dist, pred)

let reference_path (dist, pred) ~src ~dst =
  if not (Float.is_finite dist.(dst)) then None
  else begin
    let rec walk v acc =
      if v = src then v :: acc
      else
        match pred.(v) with
        | Some p -> walk p (v :: acc)
        | None -> assert false (* finite distance implies a pred chain *)
    in
    Some (walk dst [])
  end

let reference_sph g terminals =
  let terminals = List.sort_uniq Int.compare terminals in
  match terminals with
  | [] -> assert false
  | [ only ] -> Mctree.Tree.of_terminals [ only ]
  | seed :: rest ->
    let tree = ref (Map_tree.of_terminals terminals) in
    let in_tree = ref (Map_tree.Int_set.singleton seed) in
    let remaining = ref rest in
    while !remaining <> [] do
      let best = ref None in
      List.iter
        (fun t ->
          let r = reference_dijkstra g t in
          Map_tree.Int_set.iter
            (fun v ->
              let d = (fst r).(v) in
              let better =
                match !best with Some (_, _, d') -> d < d' | None -> true
              in
              if Float.is_finite d && better then
                match reference_path r ~src:t ~dst:v with
                | Some p -> best := Some (t, p, d)
                | None -> ())
            !in_tree)
        !remaining;
      match !best with
      | None -> failwith "Steiner.sph: terminals not mutually reachable"
      | Some (t, path, _) ->
        tree := Map_tree.add_path !tree path;
        List.iter (fun v -> in_tree := Map_tree.Int_set.add v !in_tree) path;
        remaining := List.filter (fun x -> x <> t) !remaining
    done;
    Map_tree.to_tree (Map_tree.prune !tree)

(* Random Waxman graphs plus tie-heavy unit-weight shapes, each also with
   roughly a fifth of its links set down. *)
let differential_graphs () =
  let unit_er seed n =
    Oracle.Topo_gen.erdos_renyi (Sim.Rng.create seed) ~n ~min_weight:1.0
      ~max_weight:1.0 ()
  in
  let base =
    List.concat
      [
        List.init 8 (fun i ->
            ( Printf.sprintf "waxman seed %d" (i + 1),
              random_graph (i + 1) (12 + (6 * i)) ));
        [
          ("ring 8", Net.Topo_gen.ring 8);
          ("ring 11", Net.Topo_gen.ring 11);
          ("grid 3x4", Net.Topo_gen.grid ~rows:3 ~cols:4 ());
          ("grid 5x5", Net.Topo_gen.grid ~rows:5 ~cols:5 ());
          ("complete 7", Net.Topo_gen.complete 7);
        ];
        List.init 6 (fun i ->
            ( Printf.sprintf "unit erdos-renyi seed %d" (i + 1),
              unit_er (i + 1) (10 + (5 * i)) ));
      ]
  in
  let with_downs i (name, g) =
    let g = Net.Graph.copy g in
    let rng = Sim.Rng.create (100 + i) in
    List.iter
      (fun (e : Net.Graph.edge) ->
        if Sim.Rng.float rng 1.0 < 0.2 then
          Net.Graph.set_link g e.u e.v ~up:false)
      (Net.Graph.edges g);
    (name ^ " with links down", g)
  in
  base @ List.mapi with_downs base

let test_dijkstra_vs_boxed_heap () =
  List.iter
    (fun (name, g) ->
      for src = 0 to Net.Graph.n_nodes g - 1 do
        let r = Net.Dijkstra.run g src in
        let dist, pred = reference_dijkstra g src in
        Array.iteri
          (fun v d ->
            if not (Float.equal d r.dist.(v)) then
              Alcotest.failf "%s, src %d: dist to %d is %h, reference %h" name
                src v r.dist.(v) d;
            let p = Option.value pred.(v) ~default:(-1) in
            if p <> r.pred.(v) then
              Alcotest.failf "%s, src %d: pred of %d is %d, reference %d" name
                src v r.pred.(v) p)
          dist
      done)
    (differential_graphs ())

let test_sph_vs_quadratic () =
  let outcome f g terminals =
    match f g terminals with
    | tree -> Ok tree
    | exception Failure msg -> Error msg
  in
  List.iteri
    (fun i (name, g) ->
      let n = Net.Graph.n_nodes g in
      let rng = Sim.Rng.create (200 + i) in
      for k = 2 to Int.min n 10 do
        let terminals = Sim.Rng.sample rng k (List.init n (fun v -> v)) in
        match
          (outcome Mctree.Steiner.sph g terminals, outcome reference_sph g terminals)
        with
        | Ok a, Ok b ->
          if not (Mctree.Tree.equal a b) then
            Alcotest.failf "%s, %d terminals: trees differ" name k
        | Error a, Error b -> check Alcotest.string name b a
        | Ok _, Error _ | Error _, Ok _ ->
          Alcotest.failf "%s, %d terminals: one side failed" name k
      done)
    (differential_graphs ())

(* [Dijkstra.run] is memoised per graph version, so the timed search
   must be a miss: after a warm-up run builds the cached adjacency rows,
   taking a link down and up again leaves rows and topology as they were
   but moves the version.  A hit must then cost only its result record. *)
let test_dijkstra_allocation_bound () =
  let n = 200 in
  let g = random_graph 7 n in
  ignore (Net.Dijkstra.run g 0);
  let e = List.hd (Net.Graph.edges g) in
  Net.Graph.set_link g e.u e.v ~up:false;
  Net.Graph.set_link g e.u e.v ~up:true;
  let baseline =
    let before = Gc.minor_words () in
    Gc.minor_words () -. before
  in
  let timed_run () =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Net.Dijkstra.run g 0));
    int_of_float (Gc.minor_words () -. before -. baseline)
  in
  let miss = timed_run () in
  let bound = (8 * n) + 64 in
  if miss > bound then
    Alcotest.failf "one search allocated %d minor words (bound %d)" miss bound;
  (* The result arrays alone are over [2n] words: the run searched. *)
  if miss < 2 * n then
    Alcotest.failf "the timed run allocated %d minor words: not a search" miss;
  let hit = timed_run () in
  if hit > 4 then Alcotest.failf "a memo hit allocated %d minor words" hit

(* The tie-break's compare and the agreement checks' equal read the two
   trees' arrays and allocate nothing. *)
let test_tree_compare_allocation_bound () =
  let build () =
    Mctree.Tree.add_path
      (Mctree.Tree.of_terminals [ 0; 50; 100 ])
      (List.init 101 (fun v -> v))
  in
  let a = build () and b = build () in
  if a == b || List.length (Mctree.Tree.edges a) <> 100 then
    Alcotest.fail "expected two distinct 100-edge trees";
  let baseline =
    let before = Gc.minor_words () in
    Gc.minor_words () -. before
  in
  let before = Gc.minor_words () in
  let c = Sys.opaque_identity (Mctree.Tree.compare a b) in
  let e = Sys.opaque_identity (Mctree.Tree.equal a b) in
  let words = int_of_float (Gc.minor_words () -. before -. baseline) in
  check Alcotest.int "compare" 0 c;
  check Alcotest.bool "equal" true e;
  check Alcotest.int "minor words for compare + equal" 0 words

(* ------------------------------------------------------------------ *)
(* Tree predicates and repair vs the set-based code they replaced *)

(* The predicates as they were: level-by-level set unions from the
   smallest node, on the map-backed tree. *)
module Set_tree = struct
  module T = Map_tree

  let edge_nodes t =
    T.Int_set.filter
      (fun u -> not (T.Int_set.is_empty (T.neighbors t u)))
      (T.nodes t)

  let component_of t start =
    let rec grow frontier seen =
      if T.Int_set.is_empty frontier then seen
      else begin
        let next =
          T.Int_set.fold
            (fun u acc ->
              T.Int_set.union acc (T.Int_set.diff (T.neighbors t u) seen))
            frontier T.Int_set.empty
        in
        grow next (T.Int_set.union seen next)
      end
    in
    grow (T.Int_set.singleton start) (T.Int_set.singleton start)

  let is_tree t =
    let vs = edge_nodes t in
    T.Int_set.is_empty vs
    ||
    let n = T.Int_set.cardinal vs in
    List.length (T.edges t) = n - 1
    && T.Int_set.cardinal (component_of t (T.Int_set.min_elt vs)) = n

  let spans_terminals t =
    match T.Int_set.cardinal t.T.terminals with
    | 0 | 1 -> true
    | _ ->
      let first = T.Int_set.min_elt t.T.terminals in
      (not (T.Int_set.is_empty (T.neighbors t first)))
      && T.Int_set.subset t.T.terminals (component_of t first)

  let is_valid_mc_topology g t =
    is_tree t && spans_terminals t && T.is_embedded g t

  (* Incremental repair as it was: a path built for every improving
     graft candidate, and every tree rebuilt through its live fragment. *)
  let graft g tree x =
    let r = Net.Dijkstra.run g x in
    let best = ref None in
    T.Int_set.iter
      (fun v ->
        let d = r.dist.(v) in
        let better = match !best with Some (_, d') -> d < d' | None -> true in
        if v <> x && Float.is_finite d && better then
          match Net.Dijkstra.path_of_result r ~src:x ~dst:v with
          | Some p -> best := Some (p, d)
          | None -> ())
      (T.Int_set.remove x (T.nodes tree));
    match !best with
    | Some (path, _) -> T.add_path tree path
    | None -> failwith "Incremental.join: member cannot reach the tree"

  (* Incremental join as it was: the node set built to test emptiness
     and membership. *)
  let join g tree x =
    let tree = T.add_terminal tree x in
    if T.Int_set.is_empty (T.nodes (T.remove_terminal tree x)) then tree
    else if T.mem_node (T.remove_terminal tree x) x then tree
    else graft g tree x

  let fragment t seed =
    let keep = T.Int_set.of_list (T.dfs_order t ~root:seed) in
    List.fold_left
      (fun acc (u, v) ->
        if T.Int_set.mem u keep && T.Int_set.mem v keep then T.add_edge acc u v
        else acc)
      (T.of_terminals [ seed ])
      (T.edges t)

  let repair g tree =
    let live =
      List.fold_left
        (fun t (u, v) ->
          if Net.Graph.link_is_up g u v then t else T.remove_edge t u v)
        tree (T.edges tree)
    in
    let terminals = T.terminals live in
    match terminals with
    | [] -> Some T.empty
    | [ only ] -> Some (T.of_terminals [ only ])
    | seed :: rest -> (
      try
        let result =
          List.fold_left
            (fun t x ->
              let t = if T.mem_node t x then t else graft g t x in
              T.add_terminal t x)
            (fragment live seed) rest
        in
        let result = T.prune (T.with_terminals result terminals) in
        if is_valid_mc_topology g result then Some result
        else Some (T.of_tree (Mctree.Steiner.sph g terminals))
      with Failure _ -> (
        try Some (T.of_tree (Mctree.Steiner.sph g terminals))
        with Failure _ -> None))
end

(* A complete graph on [predicate_nodes] switches (so every edge set is
   embedded) with the links in [dead] down. *)
let predicate_nodes = 10

let complete_with_dead dead =
  let g = Net.Topo_gen.complete predicate_nodes in
  List.iter (fun (u, v) -> Net.Graph.set_link g u v ~up:false) dead;
  g

let predicates_agree g t =
  let module T = Mctree.Tree in
  let m = Map_tree.of_tree t in
  Bool.equal (T.is_tree t) (Set_tree.is_tree m)
  && Bool.equal (T.spans_terminals t) (Set_tree.spans_terminals m)
  && Bool.equal (T.is_valid_mc_topology g t)
       (Set_tree.is_valid_mc_topology g m)

(* The shapes the predicates must tell apart, each with its expected
   (is_tree, spans_terminals, is_valid_mc_topology) under one dead link
   (7, 8). *)
let test_predicate_shapes () =
  let g = complete_with_dead [ (7, 8) ] in
  let path = [ (0, 1); (1, 2); (2, 3) ] in
  let cases =
    [
      ("empty", [], [], (true, true, true));
      ("edge-free terminal", [ 4 ], [], (true, true, true));
      ("two edge-free terminals", [ 4; 5 ], [], (true, false, false));
      ("path, no terminal", [], path, (true, true, true));
      ("path, one terminal", [ 3 ], path, (true, true, true));
      ("path spanning", [ 0; 3 ], path, (true, true, true));
      ("path and an edge-free terminal", [ 0; 9 ], path, (true, false, false));
      ("edge-free least terminal", [ 0; 5; 6 ], [ (5, 6) ], (true, false, false));
      ("cycle", [ 0; 2 ], [ (0, 1); (1, 2); (0, 2) ], (false, true, false));
      ("forest", [ 0; 1 ], [ (0, 1); (3, 4) ], (false, true, false));
      ("forest split", [ 0; 4 ], [ (0, 1); (3, 4) ], (false, false, false));
      ("over a dead link", [ 6; 8 ], [ (6, 7); (7, 8) ], (true, true, false));
    ]
  in
  List.iter
    (fun (name, terminals, edges, (tree, spans, valid)) ->
      let t = Mctree.Tree.of_edges ~terminals edges in
      check
        Alcotest.(triple bool bool bool)
        name (tree, spans, valid)
        ( Mctree.Tree.is_tree t,
          Mctree.Tree.spans_terminals t,
          Mctree.Tree.is_valid_mc_topology g t );
      check Alcotest.bool (name ^ ": agrees with the set search") true
        (predicates_agree g t))
    cases

(* Random edge sets over a few nodes (cycles and forests are common),
   0-4 terminals drawn past the edges' nodes too (edge-free terminals),
   and 0-3 dead links. *)
let predicate_case_gen =
  QCheck2.Gen.(
    let node = int_range 0 (predicate_nodes - 1) in
    let edge =
      map2
        (fun u k -> (u, (u + 1 + k) mod predicate_nodes))
        (int_range 0 6)
        (int_range 0 3)
    in
    triple
      (list_size (int_range 0 4) node)
      (list_size (int_range 0 9) edge)
      (list_size (int_range 0 3) edge))

let print_predicate_case (terminals, edges, dead) =
  let ints l = String.concat "," (List.map string_of_int l) in
  let pairs l =
    String.concat "," (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) l)
  in
  Printf.sprintf "terminals [%s] edges [%s] dead [%s]" (ints terminals)
    (pairs edges) (pairs dead)

let prop_predicates_vs_set_search =
  QCheck2.Test.make ~name:"tree predicates agree with the set search"
    ~count:2000 ~print:print_predicate_case predicate_case_gen
    (fun (terminals, edges, dead) ->
      let g = complete_with_dead dead in
      predicates_agree g (Mctree.Tree.of_edges ~terminals edges))

(* A tree on a Waxman graph: the SPH tree of 2-6 terminals, possibly
   with an extra branch to a non-terminal (an unpruned tree), then 0-2
   of the graph's links taken down.  [intact] keeps every link up. *)
let repair_case_gen =
  QCheck2.Gen.(
    quad (int_range 1 10000) (int_range 6 20)
      (list_size (int_range 2 6) (int_range 0 1000))
      (pair (int_range 0 1000) (list_size (int_range 0 2) (int_range 0 1000))))

let repair_case ~intact (seed, n, picks, (branch, downs)) =
  let g = random_graph seed n in
  let terminals = List.sort_uniq Int.compare (List.map (fun x -> x mod n) picks) in
  let tree = Mctree.Steiner.sph g terminals in
  let tree =
    let spur = branch mod n in
    if branch mod 3 = 0 || Mctree.Tree.mem_node tree spur then tree
    else Map_tree.to_tree (Set_tree.graft g (Map_tree.of_tree tree) spur)
  in
  let links = Array.of_list (Net.Graph.edges g) in
  if not intact then
    List.iter
      (fun k ->
        let (e : Net.Graph.edge) = links.(k mod Array.length links) in
        Net.Graph.set_link g e.u e.v ~up:false)
      downs;
  (g, tree)

let print_repair_case (seed, n, picks, (branch, downs)) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "seed %d n %d picks [%s] branch %d downs [%s]" seed n
    (ints picks) branch (ints downs)

let same_repair g tree =
  Option.equal Mctree.Tree.equal
    (Mctree.Incremental.repair g tree)
    (Option.map Map_tree.to_tree (Set_tree.repair g (Map_tree.of_tree tree)))

(* The intact-tree fast path: a valid, live tree comes back pruned,
   equal to what the rebuild made of it. *)
let prop_repair_intact_vs_rebuild =
  QCheck2.Test.make ~name:"repair of an intact tree equals the rebuild"
    ~count:300 ~print:print_repair_case repair_case_gen (fun case ->
      let g, tree = repair_case ~intact:true case in
      Mctree.Tree.is_valid_mc_topology g tree
      && same_repair g tree
      && same_repair g (Mctree.Tree.prune tree))

(* Every other case, dead tree links included, keeps the rebuild; only
   the graft's single path is new there. *)
let prop_repair_vs_rebuild =
  QCheck2.Test.make ~name:"repair with dead links equals the rebuild"
    ~count:300 ~print:print_repair_case repair_case_gen (fun case ->
      let g, tree = repair_case ~intact:false case in
      same_repair g tree)

(* ------------------------------------------------------------------ *)
(* Array tree kernels vs the list-based loops they replaced *)

module List_loops = struct
  module T = Map_tree

  (* [Steiner.sph]'s attach loop as it was: each step rescans every
     remaining terminal's distances against the whole tree set, builds
     the winner's path as a list and adds it edge by edge; the tree is
     pruned at the end. *)
  let sph g terminals =
    match List.sort_uniq Int.compare terminals with
    | [] -> failwith "Steiner: empty terminal set"
    | [ only ] -> T.of_terminals [ only ]
    | seed :: rest as terminals ->
      let rec attach tree in_tree = function
        | [] -> T.prune tree
        | remaining -> (
          let best = ref None in
          List.iter
            (fun ((_, (r : Net.Dijkstra.result)) as entry) ->
              T.Int_set.iter
                (fun v ->
                  let d = r.dist.(v) in
                  let better =
                    match !best with Some (_, _, d') -> d < d' | None -> true
                  in
                  if Float.is_finite d && better then best := Some (entry, v, d))
                in_tree)
            remaining;
          match !best with
          | None -> failwith "Steiner.sph: terminals not mutually reachable"
          | Some ((t, r), v, _) ->
            let path = Option.get (Net.Dijkstra.path_of_result r ~src:t ~dst:v) in
            attach (T.add_path tree path)
              (List.fold_left (fun s x -> T.Int_set.add x s) in_tree path)
              (List.filter (fun (x, _) -> x <> t) remaining))
      in
      attach (T.of_terminals terminals) (T.Int_set.singleton seed)
        (List.map (fun t -> (t, Net.Dijkstra.run g t)) rest)

  (* [Spt.source_rooted] as it was: each receiver's whole path from the
     root, added edge by edge. *)
  let source_rooted g ~root ~receivers =
    let r = Net.Dijkstra.run g root in
    let terminals = List.sort_uniq Int.compare (root :: receivers) in
    List.fold_left
      (fun tree dst ->
        if dst = root then tree
        else
          match Net.Dijkstra.path_of_result r ~src:root ~dst with
          | Some p -> T.add_path tree p
          | None -> failwith (Printf.sprintf "Spt: receiver %d unreachable" dst))
      (T.of_terminals terminals) terminals
end

(* A graph of 4-14 switches on up to [2n] random links (so some switches
   are cut off), weighted 1-3, where equal-cost paths are common, or
   0.1-0.3, where a sum's value depends on its order; about a sixth of
   the links are down.  Then 2-8 distinct terminals and one more node. *)
type kernel_case = {
  n : int;
  links : (int * int * int * bool) list;
  tenths : bool;
  terminals : int list;
  extra : int;
}

let kernel_case_gen =
  QCheck2.Gen.(
    let* n = int_range 4 14 in
    let node = int_bound (n - 1) in
    let* links =
      list_size (int_range 0 (2 * n))
        (map2 (fun (u, v, w) down -> (u, v, w, down = 0))
           (triple node node (int_range 1 3))
           (int_bound 5))
    in
    let* tenths = bool in
    let* k = int_range 2 8 in
    let* order = shuffle_l (List.init n Fun.id) in
    let* extra = node in
    return
      { n; links; tenths; terminals = List.filteri (fun i _ -> i < k) order; extra })

let print_kernel_case c =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "n %d links [%s] %s terminals [%s] extra %d" c.n
    (String.concat ","
       (List.map
          (fun (u, v, w, down) ->
            Printf.sprintf "%d-%d:%d%s" u v w (if down then "(down)" else ""))
          c.links))
    (if c.tenths then "tenths" else "units")
    (ints c.terminals) c.extra

let kernel_graph c =
  let g = Net.Graph.create c.n in
  List.iter
    (fun (u, v, w, down) ->
      if u <> v && not (Net.Graph.has_edge g u v) then begin
        let w = float_of_int w in
        Net.Graph.add_edge g u v ~weight:(if c.tenths then w /. 10.0 else w);
        if down then Net.Graph.set_link g u v ~up:false
      end)
    c.links;
  g

let outcome f = match f () with v -> Ok v | exception Failure msg -> Error msg

(* A tree outcome against a map-backed reference's. *)
let same_tree_outcome a b =
  match (a, b) with
  | Ok a, Ok b -> Mctree.Tree.equal a (Map_tree.to_tree b)
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_sph_vs_attach_loop =
  QCheck2.Test.make ~name:"sph kernel equals the list-based attach loop"
    ~count:1000 ~print:print_kernel_case kernel_case_gen (fun c ->
      let g = kernel_graph c in
      same_tree_outcome
        (outcome (fun () -> Mctree.Steiner.sph g c.terminals))
        (outcome (fun () -> List_loops.sph g c.terminals)))

(* The drift check's price of a fresh tree, bit for bit: the edges
   summed in ascending order, as the map-backed tree listed them. *)
let prop_sph_cost_vs_tree_cost =
  QCheck2.Test.make ~name:"sph cost equals the reference tree's cost"
    ~count:1000 ~print:print_kernel_case kernel_case_gen (fun c ->
      let g = kernel_graph c in
      match
        ( outcome (fun () -> Mctree.Tree.cost g (Mctree.Steiner.sph g c.terminals)),
          outcome (fun () -> List_loops.sph g c.terminals) )
      with
      | Ok cost, Ok tree -> Float.equal cost (Map_tree.cost g tree)
      | Error a, Error b -> String.equal a b
      | Ok _, Error _ | Error _, Ok _ -> false)

let prop_spt_vs_path_union =
  QCheck2.Test.make ~name:"source-rooted tree equals the union of paths"
    ~count:1000 ~print:print_kernel_case kernel_case_gen (fun c ->
      let g = kernel_graph c in
      let root = c.extra and receivers = c.terminals in
      same_tree_outcome
        (outcome (fun () -> Mctree.Spt.source_rooted g ~root ~receivers))
        (outcome (fun () -> List_loops.source_rooted g ~root ~receivers)))

(* Joins onto the reference SPH tree of the terminals, onto that tree
   with its least terminal dropped but its edges kept, and onto a tree
   of one terminal. *)
let prop_join_vs_set_join =
  QCheck2.Test.make ~name:"incremental join equals the set-based join"
    ~count:1000 ~print:print_kernel_case kernel_case_gen (fun c ->
      let g = kernel_graph c in
      let same tree x =
        same_tree_outcome
          (outcome (fun () -> Mctree.Incremental.join g tree x))
          (outcome (fun () -> Set_tree.join g (Map_tree.of_tree tree) x))
      in
      let least = List.fold_left Int.min (List.hd c.terminals) c.terminals in
      List.for_all
        (fun tree ->
          List.for_all (same tree) (c.extra :: least :: c.terminals))
        (Mctree.Tree.of_terminals [ least ] :: Mctree.Tree.empty
        ::
        (match outcome (fun () -> List_loops.sph g c.terminals) with
        | Ok t ->
          let t = Map_tree.to_tree t in
          [ t; Mctree.Tree.remove_terminal t least ]
        | Error _ -> [])))

(* ------------------------------------------------------------------ *)
(* Renderers vs the Format printers they replaced *)

(* The printers as they were, verbatim but for reaching the values
   through the public API. *)
let reference_member_pp ppf t =
  let entries =
    List.map
      (fun id -> (id, Option.get (Dgmc.Member.role t id)))
      (Dgmc.Member.ids t)
  in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (id, role) ->
         Format.fprintf ppf "%d:%s" id (Dgmc.Member.role_to_string role)))
    (List.to_seq entries)

let reference_tree_pp ppf t =
  let pp_set ppf l =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Format.pp_print_int)
      l
  in
  Format.fprintf ppf "@[<h>tree terminals=%a edges=[%a]@]" pp_set
    (Mctree.Tree.terminals t)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (u, v) -> Format.fprintf ppf "%d-%d" u v))
    (Mctree.Tree.edges t)

let reference_mc_id_pp ppf (t : Dgmc.Mc_id.t) =
  Format.fprintf ppf "mc#%d(%s)" t.id (Dgmc.Mc_id.kind_to_string t.kind)

(* [render] must equal the reference alone, and [pp] must print it like
   the reference also mid-line, where a box opened past the indentation
   limit breaks the line before it. *)
let check_renderer what ~reference ~render ~pp x =
  let want = Format.asprintf "%a" reference x in
  check Alcotest.string what want (render x);
  let prefix = String.make 70 '.' in
  check Alcotest.string (what ^ " mid-line")
    (Format.asprintf "%s %a|%a" prefix reference x reference x)
    (Format.asprintf "%s %a|%a" prefix pp x pp x)

let roles = [| Dgmc.Member.Sender; Dgmc.Member.Receiver; Dgmc.Member.Both |]

let test_member_renderer () =
  let rng = Sim.Rng.create 31 in
  for k = 0 to 299 do
    let size = if k = 0 then 0 else Sim.Rng.int rng 12 in
    let span = if k mod 3 = 0 then 20 else 100_000 in
    let m =
      Dgmc.Member.of_list
        (List.init size (fun _ ->
             (Sim.Rng.int rng span, roles.(Sim.Rng.int rng 3))))
    in
    check_renderer (Printf.sprintf "members #%d" k) ~reference:reference_member_pp
      ~render:Dgmc.Member.to_string ~pp:Dgmc.Member.pp m
  done

let test_tree_renderer () =
  let rng = Sim.Rng.create 32 in
  let nodes k span = List.init k (fun _ -> Sim.Rng.int rng span) in
  for k = 0 to 299 do
    let span = if k mod 2 = 0 then 12 else 5_000 in
    let terminals n = Mctree.Tree.of_terminals (nodes (Sim.Rng.int rng n) span) in
    let tree =
      if k = 0 then Mctree.Tree.empty
      else
        match k mod 3 with
        | 0 -> terminals 8
        | 1 ->
          Mctree.Tree.add_path (terminals 4)
            (List.sort_uniq Int.compare (nodes (2 + Sim.Rng.int rng 20) span))
        | _ ->
          List.fold_left
            (fun t (u, v) -> if u = v then t else Mctree.Tree.add_path t [ u; v ])
            (terminals 6)
            (List.init (Sim.Rng.int rng 25) (fun _ ->
                 (Sim.Rng.int rng span, Sim.Rng.int rng span)))
    in
    check_renderer (Printf.sprintf "tree #%d" k) ~reference:reference_tree_pp
      ~render:Mctree.Tree.to_string ~pp:Mctree.Tree.pp tree
  done

let test_mc_id_renderer () =
  let rng = Sim.Rng.create 33 in
  List.iter
    (fun kind ->
      List.iter
        (fun id ->
          let mc = Dgmc.Mc_id.make kind id in
          check_renderer
            (Format.asprintf "%a" reference_mc_id_pp mc)
            ~reference:reference_mc_id_pp ~render:Dgmc.Mc_id.to_string
            ~pp:Dgmc.Mc_id.pp mc)
        (0 :: 1 :: 42 :: max_int :: List.init 20 (fun _ -> Sim.Rng.int rng 1_000_000)))
    [ Dgmc.Mc_id.Symmetric; Dgmc.Mc_id.Receiver_only; Dgmc.Mc_id.Asymmetric ]

(* A switch's membership notes are concatenated, not formatted: each
   note of two traced scenarios (churn_storm has stale skips) must read
   back through its old format string and render to the same bytes. *)
let test_member_notes () =
  let dir = List.find Sys.file_exists [ "../scenarios"; "scenarios" ] in
  let applies = ref 0 and skips = ref 0 in
  List.iter
    (fun file ->
      match Workload.Script.load (Filename.concat dir file) with
      | Error msg -> Alcotest.failf "%s: %s" file msg
      | Ok script ->
        let trace = Sim.Trace.create () in
        Dgmc.Protocol.run (Workload.Script.build ~trace script);
        List.iter
          (fun (e : Sim.Trace.entry) ->
            match e.event with
            | Note { category = "member"; message } ->
              let again =
                match String.split_on_char ' ' message with
                | _ :: "SKIPS" :: _ ->
                  incr skips;
                  Scanf.sscanf message
                    "sw%d SKIPS stale %s@ from %d seq %d (seen %d)%!"
                    (Printf.sprintf
                       "sw%d SKIPS stale %s from %d seq %d (seen %d)")
                | _ ->
                  incr applies;
                  Scanf.sscanf message "sw%d applies %s@ from %d seq %d%!"
                    (Printf.sprintf "sw%d applies %s from %d seq %d")
              in
              check Alcotest.string file again message
            | _ -> ())
          (Sim.Trace.entries trace))
    [ "churn_storm.dgmc"; "faulty_flood.dgmc" ];
  check Alcotest.bool "applied notes seen" true (!applies > 0);
  check Alcotest.bool "stale-skip notes seen" true (!skips > 0)

(* ------------------------------------------------------------------ *)
(* Churn wave candidates vs a connectivity search per link *)

(* The filter as it was: a fresh adjacency build and DFS per link. *)
let reference_connected_without graph cut =
  let n = Net.Graph.n_nodes graph in
  if n = 0 then true
  else begin
    let adj = Array.make n [] in
    List.iter
      (fun (e : Net.Graph.edge) ->
        if not (List.mem (e.u, e.v) cut) then begin
          adj.(e.u) <- e.v :: adj.(e.u);
          adj.(e.v) <- e.u :: adj.(e.v)
        end)
      (Net.Graph.edges graph);
    let seen = Array.make n false in
    let rec visit i =
      if not seen.(i) then begin
        seen.(i) <- true;
        List.iter visit adj.(i)
      end
    in
    visit 0;
    Array.for_all Fun.id seen
  end

let reference_fade_candidates graph cut =
  List.filter
    (fun (e : Net.Graph.edge) ->
      (not (List.mem (e.u, e.v) cut))
      && reference_connected_without graph ((e.u, e.v) :: cut))
    (Net.Graph.edges graph)

let test_fade_candidates_vs_search () =
  let graphs =
    List.concat
      [
        List.init 10 (fun i -> random_graph (40 + i) (6 + (4 * i)));
        List.init 6 (fun i ->
            Oracle.Topo_gen.erdos_renyi (Sim.Rng.create (60 + i)) ~n:(8 + (6 * i)) ());
        [
          Net.Topo_gen.ring 9;
          Net.Topo_gen.line 7;
          Net.Topo_gen.star 6;
          Net.Topo_gen.grid ~rows:3 ~cols:5 ();
          Net.Topo_gen.complete 6;
          Net.Graph.create 1;
          Oracle.Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ];
        ];
      ]
  in
  let pairs l = List.map (fun (e : Net.Graph.edge) -> (e.u, e.v)) l in
  let same g cut =
    check
      Alcotest.(list (pair int int))
      (Printf.sprintf "n=%d, cut of %d" (Net.Graph.n_nodes g) (List.length cut))
      (pairs (reference_fade_candidates g cut))
      (pairs (Workload.Churn.fade_candidates g ~cut))
  in
  List.iteri
    (fun i g ->
      let rng = Sim.Rng.create (80 + i) in
      let all = pairs (Net.Graph.edges g) in
      (* A wave's own cuts: each link drawn from the candidates. *)
      let cut = ref [] in
      for _ = 0 to 5 do
        same g !cut;
        match reference_fade_candidates g !cut with
        | [] -> ()
        | c ->
          let e = Sim.Rng.pick rng c in
          cut := (e.u, e.v) :: !cut
      done;
      (* Arbitrary cuts, disconnecting ones included. *)
      for _ = 1 to 10 do
        if all <> [] then
          same g (Sim.Rng.sample rng (1 + Sim.Rng.int rng (List.length all)) all)
      done)
    graphs

(* ------------------------------------------------------------------ *)
(* The columnar trace store vs the boxed ring it replaced *)

type trace_op =
  | Event of { time : float; parent : int option; event : Sim.Trace.event }
  | Enter of int  (** set the context *)
  | Leave  (** restore the innermost context set *)

type trace_case = {
  cap : int;
  cats : string list option;
  ops : trace_op list;
  vectors : int array list;  (** every stamp's dense vector *)
}

let drop_reasons : (string * Sim.Trace.reason) list =
  [
    ("fault", Fault);
    ("link-down", Link_down);
    ("abandoned", Abandoned);
    ("neighbor-down", Neighbor_down);
  ]

(* A sequence of every event kind, explicit parents and contexts among
   them, into a ring of 1..64 entries with a random category filter
   (sometimes naming a category no event has).  Stamps are short dense
   vectors with zeros, explicit parents are ids that may not exist yet:
   the store records what it is given. *)
let trace_case_of_seed seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n and bool () = Random.State.bool st in
  let pick l = List.nth l (int (List.length l)) in
  let vectors = ref [] in
  let stamp () =
    let v = Array.init (int 6) (fun _ -> if bool () then 0 else int 5) in
    vectors := v :: !vectors;
    Oracle.Trace.sparse v
  in
  let str () = pick [ ""; "mc#1(symmetric)"; "say \"hi\"\n"; "join:both" ] in
  let event () : Sim.Trace.event =
    match int 14 with
    | 0 ->
      Lsa_originated
        {
          switch = int 8;
          mc = str ();
          seq = int 9;
          ev = str ();
          proposal = bool ();
          stamp = stamp ();
        }
    | 1 ->
      Lsa_forwarded
        {
          src = int 8;
          dst = int 8;
          origin = int 8;
          seq = int 9;
          retransmit = bool ();
        }
    | 2 ->
      Lsa_delivered
        { switch = int 8; source = int 8; origin = int 8; seq = int 9 }
    | 3 ->
      Lsa_dropped
        {
          src = int 8;
          dst = int 8;
          origin = int 8;
          seq = int 9;
          reason = pick ("other" :: List.map fst drop_reasons);
        }
    | 4 ->
      Compute_started
        { switch = int 8; mc = str (); trigger = str (); r = stamp () }
    | 5 ->
      Proposal_made
        { switch = int 8; mc = str (); withdrawn = bool (); stamp = stamp () }
    | 6 ->
      let r = stamp () in
      let e = stamp () in
      let c = stamp () in
      Topology_installed
        { switch = int 8; mc = str (); r; e; c; members = str (); tree = str () }
    | 7 -> Fault_injected { src = int 8; dst = int 8; fault = str () }
    | 8 -> Crash { switch = int 8 }
    | 9 -> Recover { switch = int 8 }
    | 10 -> Resync { switch = int 8; peer = int 8; mc = str () }
    | 11 ->
      Link_detected
        {
          switch = int 8;
          peer = int 8;
          up = bool ();
          latency = Random.State.float st 2.0;
          spurious = bool ();
        }
    | 12 -> Link_suppressed { switch = int 8; peer = int 8; resumed = bool () }
    | _ -> Note { category = pick [ "member"; "truth"; "n" ]; message = str () }
  in
  let cap = 1 + int 64 in
  let cats =
    if int 3 = 0 then None
    else
      Some
        (List.filter (fun _ -> bool ()) ("n" :: "nothing" :: Sim.Trace.categories))
  in
  let ops =
    List.init (int 200) (fun _ ->
        match int 10 with
        | 0 -> Enter (int 20 - 1)
        | 1 -> Leave
        | _ ->
          let time = Random.State.float st 100.0 in
          let parent = if bool () then None else Some (int 300) in
          Event { time; parent; event = event () })
  in
  { cap; cats; ops; vectors = !vectors }

(* The same sequence into the ring, into a store through [emit] only,
   and into a store through the flood emitters where they apply: every
   id returned, the retained entries and counters, and the JSONL text
   agree, and the text reads back as the entries. *)
let prop_trace_store_vs_ring =
  QCheck2.Test.make ~name:"columnar trace store equals the boxed ring"
    ~count:300 ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let c = trace_case_of_seed seed in
      let ring = Oracle.Trace.Ring.create ~cap:c.cap ?cats:c.cats () in
      let by_emit = Sim.Trace.create ~cap:c.cap ?cats:c.cats () in
      let by_emitters = Sim.Trace.create ~cap:c.cap ?cats:c.cats () in
      let saved = Stack.create () in
      let emitters ~time ?parent (event : Sim.Trace.event) =
        let p = Option.value parent ~default:(-1) in
        match event with
        | Lsa_forwarded { src; dst; origin; seq; retransmit } ->
          Sim.Trace.forward by_emitters ~time ~parent:p ~src ~dst ~origin ~seq
            ~retransmit
        | Lsa_delivered { switch; source; origin; seq } ->
          Sim.Trace.deliver by_emitters ~time ~parent:p ~switch ~source ~origin
            ~seq
        | Lsa_dropped { src; dst; origin; seq; reason }
          when List.mem_assoc reason drop_reasons ->
          let id = Oracle.Trace.emitted by_emitters in
          Sim.Trace.drop by_emitters ~time ~parent:p ~src ~dst ~origin ~seq
            (List.assoc reason drop_reasons);
          id
        | _ -> Sim.Trace.emit by_emitters ~time ?parent event
      in
      List.iter
        (function
          | Enter id ->
            Stack.push
              ( Oracle.Trace.Ring.set_context ring id,
                Sim.Trace.set_context by_emit id,
                Sim.Trace.set_context by_emitters id )
              saved
          | Leave -> (
            match Stack.pop_opt saved with
            | None -> ()
            | Some (a, b, d) ->
              Oracle.Trace.Ring.restore_context ring a;
              Sim.Trace.restore_context by_emit b;
              Sim.Trace.restore_context by_emitters d)
          | Event { time; parent; event } ->
            let want = Oracle.Trace.Ring.emit ring ~time ?parent event in
            let got = Sim.Trace.emit by_emit ~time ?parent event in
            let got' = emitters ~time ?parent event in
            if got <> want || got' <> want then
              QCheck2.Test.fail_reportf "ids %d and %d, want %d" got got' want)
        c.ops;
      let text = Oracle.Trace.Ring.to_jsonl ring in
      let same what t =
        if Sim.Trace.entries t <> Oracle.Trace.Ring.entries ring then
          QCheck2.Test.fail_reportf "%s: entries differ" what;
        if Sim.Trace.count t <> Oracle.Trace.Ring.count ring then
          QCheck2.Test.fail_reportf "%s: count differs" what;
        if Sim.Trace.dropped t <> Oracle.Trace.Ring.dropped ring then
          QCheck2.Test.fail_reportf "%s: dropped differs" what;
        if Sim.Trace.context t <> Oracle.Trace.Ring.(ring.ctx) then
          QCheck2.Test.fail_reportf "%s: context differs" what;
        Oracle.with_temp_file (fun path ->
            Out_channel.with_open_text path (Sim.Trace.write_jsonl t);
            let written = Oracle.read_file path in
            if not (String.equal written text) then
              QCheck2.Test.fail_reportf "%s: JSONL differs:\n%s\nwant:\n%s"
                what written text;
            match Sim.Trace.read_jsonl ~path with
            | Error e -> QCheck2.Test.fail_reportf "%s: read_jsonl: %s" what e
            | Ok a ->
              if a.a_entries <> Sim.Trace.entries t then
                QCheck2.Test.fail_reportf "%s: read_jsonl differs" what;
              if a.a_emitted <> Oracle.Trace.Ring.emitted ring then
                QCheck2.Test.fail_reportf "%s: emitted differs" what)
      in
      same "emit" by_emit;
      same "emitters" by_emitters;
      List.for_all
        (fun v -> Oracle.Trace.dense (Oracle.Trace.sparse v) = v)
        c.vectors)

(* ------------------------------------------------------------------ *)
(* Word-parallel hop diameter vs the scalar sweep *)

let sizes_around_the_word = [ 1; 2; 62; 63; 64; 126; 127; 200 ]

(* Random Waxman graphs with a fifth of their links down, so some are
   disconnected, at the sizes around the word's width and at random
   sizes up to 120. *)
let prop_hop_diameter_vs_scalar_sweep =
  QCheck2.Test.make ~name:"word-parallel hop diameter equals the scalar sweep"
    ~count:120
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck2.Gen.(
      pair (int_range 1 10000)
        (oneof [ oneofl sizes_around_the_word; int_range 2 120 ]))
    (fun (seed, n) ->
      let g = random_graph seed n in
      let rng = Sim.Rng.create (seed + 1) in
      List.iter
        (fun (e : Net.Graph.edge) ->
          if Sim.Rng.int rng 5 = 0 then Net.Graph.set_link g e.u e.v ~up:false)
        (Net.Graph.edges g);
      Int.equal (Net.Bfs.hop_diameter g) (Oracle.Bfs.hop_diameter g))

(* A path whose ends are the two highest ids, its one diametral pair:
   only the last pass of sources finds its diameter. *)
let path_ending_high n =
  let rec edges = function
    | u :: (v :: _ as rest) -> (u, v, 1.0) :: edges rest
    | [ _ ] | [] -> []
  in
  Oracle.Graph.of_edges n
    (edges (((n - 2) :: List.init (n - 2) Fun.id) @ [ n - 1 ]))

(* Rings, lines, stars, grids, complete graphs and the path above at
   the same sizes, whole and with one link down. *)
let test_hop_diameter_shapes () =
  let shapes n =
    List.concat
      [
        (if n >= 3 then [ ("ring", Net.Topo_gen.ring n) ] else []);
        (if n >= 2 then
           [
             ("line", Net.Topo_gen.line n);
             ("star", Net.Topo_gen.star n);
             ("complete", Net.Topo_gen.complete n);
           ]
         else []);
        (if n >= 2 then [ ("path ending high", path_ending_high n) ] else []);
        [
          ("grid 1 row", Net.Topo_gen.grid ~rows:1 ~cols:n ());
          ("grid", Net.Topo_gen.grid ~rows:(max 1 (n / 8)) ~cols:8 ());
        ];
      ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (name, g) ->
          let label = Printf.sprintf "%s, n = %d" name (Net.Graph.n_nodes g) in
          check Alcotest.int label (Oracle.Bfs.hop_diameter g)
            (Net.Bfs.hop_diameter g);
          match Net.Graph.edges g with
          | [] -> ()
          | (e : Net.Graph.edge) :: _ ->
            Net.Graph.set_link g e.u e.v ~up:false;
            check Alcotest.int (label ^ ", one link down")
              (Oracle.Bfs.hop_diameter g) (Net.Bfs.hop_diameter g))
        (shapes n))
    sizes_around_the_word

(* ------------------------------------------------------------------ *)
(* Flooding's duplicate rows vs the hash table they replaced *)

(* Unicasts over a complete graph, one at a time: [send] records the
   LSA at its source, then the copy is delivered at its destination on
   its first receipt there.  The reference records the same receipts in
   the same order, and its verdict at the destination must be whether
   [deliver] ran.  Several origins, and sequence numbers mostly from a
   small range with a rare far jump, give gaps, reorders, duplicates
   and [seq = 0]. *)
let prop_duplicate_rows_vs_table =
  QCheck2.Test.make ~name:"duplicate rows give the hash table's verdicts"
    ~count:200
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 2 7))
    (fun (seed, n) ->
      let rng = Sim.Rng.create seed in
      let engine = Sim.Engine.create () in
      let delivered = ref false in
      let f =
        Lsr.Flooding.create ~engine ~graph:(Net.Topo_gen.complete n) ~t_hop:1.0
          ~deliver:(fun ~switch:_ _ -> delivered := true)
          ()
      in
      let reference = Oracle.Flooding.create n in
      let origins = 1 + Sim.Rng.int rng (Int.min n 4) in
      List.for_all
        (fun _ ->
          let src = Sim.Rng.int rng n in
          let dst = (src + 1 + Sim.Rng.int rng (n - 1)) mod n in
          let origin = Sim.Rng.int rng origins in
          let seq =
            if Sim.Rng.int rng 10 = 0 then Sim.Rng.int rng 64
            else Sim.Rng.int rng 12
          in
          ignore
            (Oracle.Flooding.first_receipt reference ~switch:src ~origin ~seq);
          let expected =
            Oracle.Flooding.first_receipt reference ~switch:dst ~origin ~seq
          in
          delivered := false;
          Lsr.Flooding.send f ~src ~dst (Lsr.Lsa.make ~origin ~seq ());
          Sim.Engine.run engine;
          Bool.equal !delivered expected)
        (List.init 300 Fun.id))

let () =
  Alcotest.run "oracles"
    [
      ( "shortest-paths",
        [
          Alcotest.test_case "dijkstra vs bellman-ford" `Quick
            test_dijkstra_vs_bellman_ford;
          Alcotest.test_case "next-hop characterisation" `Quick
            test_next_hop_decreases_distance;
          Alcotest.test_case "dijkstra vs boxed-heap reference" `Quick
            test_dijkstra_vs_boxed_heap;
          Alcotest.test_case "dijkstra allocation bound" `Quick
            test_dijkstra_allocation_bound;
        ] );
      ( "mst",
        [ Alcotest.test_case "kruskal vs prim" `Quick test_kruskal_vs_prim ] );
      ( "bfs",
        [
          Alcotest.test_case "hop diameter on fixed shapes" `Quick
            test_hop_diameter_shapes;
          QCheck_alcotest.to_alcotest prop_hop_diameter_vs_scalar_sweep;
        ] );
      ("flooding", [ QCheck_alcotest.to_alcotest prop_duplicate_rows_vs_table ]);
      ( "trees",
        [
          Alcotest.test_case "tree compare allocation bound" `Quick
            test_tree_compare_allocation_bound;
          Alcotest.test_case "predicates on named shapes" `Quick
            test_predicate_shapes;
          QCheck_alcotest.to_alcotest prop_tree_vs_map_tree;
          QCheck_alcotest.to_alcotest prop_predicates_vs_set_search;
          QCheck_alcotest.to_alcotest prop_repair_intact_vs_rebuild;
          QCheck_alcotest.to_alcotest prop_repair_vs_rebuild;
          QCheck_alcotest.to_alcotest prop_sph_vs_attach_loop;
          QCheck_alcotest.to_alcotest prop_sph_cost_vs_tree_cost;
          QCheck_alcotest.to_alcotest prop_spt_vs_path_union;
          QCheck_alcotest.to_alcotest prop_join_vs_set_join;
        ] );
      ( "renderers",
        [
          Alcotest.test_case "member lists vs Format printer" `Quick
            test_member_renderer;
          Alcotest.test_case "trees vs Format printer" `Quick test_tree_renderer;
          Alcotest.test_case "mc ids vs Format printer" `Quick
            test_mc_id_renderer;
          Alcotest.test_case "membership notes vs format string" `Quick
            test_member_notes;
        ] );
      ( "churn",
        [
          Alcotest.test_case "fade candidates vs connectivity search" `Quick
            test_fade_candidates_vs_search;
        ] );
      ("trace", [ QCheck_alcotest.to_alcotest prop_trace_store_vs_ring ]);
      ( "steiner",
        [
          Alcotest.test_case "oracle sanity" `Quick test_exact_oracle_sanity;
          Alcotest.test_case "sph vs quadratic reference" `Quick
            test_sph_vs_quadratic;
          Alcotest.test_case "heuristics vs exact optimum" `Slow
            test_heuristics_vs_exact_steiner;
        ] );
    ]
