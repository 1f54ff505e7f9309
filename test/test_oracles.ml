(* Oracle tests: the production algorithms checked against independent
   reference implementations (different algorithm, same answer).

   - Dijkstra vs a Bellman-Ford oracle;
   - Kruskal vs a Prim oracle;
   - the Steiner heuristics vs the EXACT optimum on small instances
     (Hakimi enumeration: the optimal Steiner tree is the cheapest MST
     of an induced subgraph over terminals ∪ S for some Steiner set S);
   - shortest-path first hops vs the distance-decrease characterisation;
   - the flat-array Dijkstra and memoised SPH vs the boxed-heap kernel
     and quadratic SPH they replaced (exact equality, ties included). *)

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
          Alcotest.failf "seed %d: dist to %d differs (%f vs %f)" seed v dv bf.(v))
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
    let kruskal = Net.Mst.cost (Net.Mst.kruskal g) in
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
    let nodes = List.sort compare (terminals @ steiner_points) in
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
        best := Float.min !best (Net.Mst.cost mst)
    end
  done;
  !best

let test_heuristics_vs_exact_steiner () =
  (* Random small graphs where enumeration is cheap. *)
  for seed = 1 to 12 do
    let g = random_graph seed 9 in
    let rng = Sim.Rng.create (seed * 31) in
    let terminals = Sim.Rng.sample rng 4 (List.init 9 (fun i -> i)) in
    let opt = exact_steiner_cost g (List.sort compare terminals) in
    List.iter
      (fun (name, algo) ->
        let cost = Mctree.Tree.cost g (algo g terminals) in
        if cost +. 1e-9 < opt then
          Alcotest.failf "seed %d: %s beat the optimum?! (%f < %f)" seed name
            cost opt;
        if cost > (2.0 *. opt) +. 1e-9 then
          Alcotest.failf "seed %d: %s exceeded 2x optimum (%f > 2 * %f)" seed
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
    (Net.Dijkstra.distance g2 0 7)
    (exact_steiner_cost g2 [ 0; 7 ])

(* ------------------------------------------------------------------ *)
(* Next-hop characterisation *)

let test_next_hop_decreases_distance () =
  (* The first hop h on u's shortest path toward d satisfies
     dist(h, d) = dist(u, d) - w(u, h): the defining property of
     shortest-path forwarding. *)
  for seed = 1 to 8 do
    let g = random_graph seed 20 in
    let dist = Net.Dijkstra.all_pairs g in
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
    let tree = ref (Mctree.Tree.of_terminals terminals) in
    let in_tree = ref (Mctree.Tree.Int_set.singleton seed) in
    let remaining = ref rest in
    while !remaining <> [] do
      let best = ref None in
      List.iter
        (fun t ->
          let r = reference_dijkstra g t in
          Mctree.Tree.Int_set.iter
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
        tree := Mctree.Tree.add_path !tree path;
        List.iter (fun v -> in_tree := Mctree.Tree.Int_set.add v !in_tree) path;
        remaining := List.filter (fun x -> x <> t) !remaining
    done;
    Mctree.Tree.prune !tree

(* Random Waxman graphs plus tie-heavy unit-weight shapes, each also with
   roughly a fifth of its links set down. *)
let differential_graphs () =
  let unit_er seed n =
    Net.Topo_gen.erdos_renyi (Sim.Rng.create seed) ~n ~min_weight:1.0
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

(* Once both trees have their canonical form, the tie-break's compare
   and the agreement checks' equal read arrays and allocate nothing. *)
let test_tree_compare_allocation_bound () =
  let build () =
    Mctree.Tree.add_path
      (Mctree.Tree.of_terminals [ 0; 50; 100 ])
      (List.init 101 (fun v -> v))
  in
  let a = build () and b = build () in
  if a == b || Mctree.Tree.n_edges a <> 100 then
    Alcotest.fail "expected two distinct 100-edge trees";
  ignore (Mctree.Tree.compare a b);
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
      ( "trees",
        [
          Alcotest.test_case "tree compare allocation bound" `Quick
            test_tree_compare_allocation_bound;
        ] );
      ( "steiner",
        [
          Alcotest.test_case "oracle sanity" `Quick test_exact_oracle_sanity;
          Alcotest.test_case "sph vs quadratic reference" `Quick
            test_sph_vs_quadratic;
          Alcotest.test_case "heuristics vs exact optimum" `Slow
            test_heuristics_vs_exact_steiner;
        ] );
    ]
