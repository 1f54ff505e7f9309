(* Joining a disconnected draw.  The rule every committed graph was built
   by: while the graph is disconnected, add the pair of nodes in different
   components with the least [cost], ties going to the first pair in scan
   order — components by smallest member, [u] ascending in the earlier
   component, then each later component in turn, [v] ascending in it.

   One pass over the node pairs records, for every two components, their
   cheapest pair; Kruskal over those candidates then adds the same edges
   in the same order.  A tie is settled against the merged components of
   the moment, and a merge can swap which component of a pair scans
   first: so each candidate keeps its first cheapest pair in both
   orientations.  [weight] is called once per added edge, in joining
   order. *)
let connect_components g ~cost ~weight =
  match Bfs.components g with
  | [] | [ _ ] -> ()
  | comps ->
    let n = Graph.n_nodes g and k = List.length comps in
    let comp = Array.make n 0 in
    List.iteri (fun c members -> List.iter (fun v -> comp.(v) <- c) members) comps;
    (* Candidate [s] joins components [a < b].  [best] holds its cost;
       [fwd] its least pair (x in a, y in b) of that cost, at [2s] and
       [2s + 1]; [bwd] its least pair (y in b, x in a). *)
    let slots = k * (k - 1) / 2 in
    let slot a b = (a * ((2 * k) - a - 1) / 2) + (b - a - 1) in
    let best = Float.Array.make slots Float.infinity in
    let fwd = Array.make (2 * slots) 0 and bwd = Array.make (2 * slots) 0 in
    let set pairs s p q =
      pairs.(2 * s) <- p;
      pairs.((2 * s) + 1) <- q
    in
    let precedes p q pairs s =
      p < pairs.(2 * s) || (p = pairs.(2 * s) && q < pairs.((2 * s) + 1))
    in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let cu = comp.(u) and cv = comp.(v) in
        if cu <> cv then begin
          let w = cost u v in
          let x = if cu < cv then u else v and y = if cu < cv then v else u in
          let s = slot (Int.min cu cv) (Int.max cu cv) in
          let b = Float.Array.get best s in
          if w < b then begin
            Float.Array.set best s w;
            set fwd s x y;
            set bwd s y x
          end
          else if Float.equal w b then begin
            if precedes x y fwd s then set fwd s x y;
            if precedes y x bwd s then set bwd s y x
          end
        end
      done
    done;
    let order = Array.init slots Fun.id in
    Array.stable_sort
      (fun s t -> Float.compare (Float.Array.get best s) (Float.Array.get best t))
      order;
    let uf = Union_find.create k in
    (* The smallest component index in each merged set, kept at its root:
       merged components scan in this order. *)
    let low = Array.init k Fun.id in
    let low_of c = low.(Union_find.find uf c) in
    let first = ref 0 in
    while Union_find.n_sets uf > 1 do
      (* Candidates [!first, last) share one cost.  Join the first of them
         in scan order until none joins two merged components. *)
      let w = Float.Array.get best order.(!first) in
      let last = ref (!first + 1) in
      while !last < slots && Float.equal (Float.Array.get best order.(!last)) w do
        incr last
      done;
      let joined = ref true in
      while !joined do
        (* The pick's scan key: merged components [a < b], then [u] in
           [a] and [v] in [b]; [a = -1] while nothing is picked. *)
        let a = ref (-1) and u = ref 0 and b = ref 0 and v = ref 0 in
        for t = !first to !last - 1 do
          let s = order.(t) in
          let la = low_of comp.(fwd.(2 * s)) and lb = low_of comp.(fwd.((2 * s) + 1)) in
          if la <> lb then begin
            let ka = Int.min la lb and kb = Int.max la lb in
            let pairs = if la < lb then fwd else bwd in
            let ku = pairs.(2 * s) and kv = pairs.((2 * s) + 1) in
            if !a < 0 || ka < !a
               || (ka = !a && (ku < !u || (ku = !u && (kb < !b || (kb = !b && kv < !v)))))
            then begin
              a := ka;
              u := ku;
              b := kb;
              v := kv
            end
          end
        done;
        joined := !a >= 0;
        if !joined then begin
          ignore (Union_find.union uf !a !b);
          low.(Union_find.find uf !a) <- !a;
          Graph.add_edge g !u !v ~weight:(weight !u !v)
        end
      done;
      first := !last
    done

(* [Float.pow x 2.0], bit for bit, with [pow] called on about one square
   in ten.  [x *. x] is correctly rounded and glibc's [pow] is within
   0.54 ulp, so where the exact square [hi + lo] lies within 0.45 ulp of
   [hi] every other float is over 0.54 ulp away and [pow] must return
   [hi] too.  A power of two (ulps differ on its two sides), a zero, an
   [hi] below 2^-969 (where [lo] could underflow), an infinite or a NaN
   [hi] takes [pow] (EXPERIMENTS.md). *)
let[@inline] square x =
  let hi = x *. x in
  let lo = Float.fma x x (-.hi) in
  let bits = Int64.bits_of_float hi in
  let e = Int64.to_int (Int64.shift_right_logical bits 52) in
  if e > 53
     && Int64.logand bits 0xF_FFFF_FFFF_FFFFL <> 0L
     && Float.abs lo < 0.45 *. Int64.float_of_bits (Int64.of_int ((e - 52) lsl 52))
  then hi
  else Float.pow x 2.0

(* The distance of points [u < v]: every caller takes this orientation. *)
let[@inline] distance xs ys u v =
  sqrt
    (square (Float.Array.get xs u -. Float.Array.get xs v)
    +. square (Float.Array.get ys u -. Float.Array.get ys v))

let waxman rng ~n =
  (* Mean degree, distance decay, and the factor turning distances into
     edge weights. *)
  let degree = 3.5 and beta = 0.2 and scale = 10.0 in
  if n < 1 then invalid_arg "Topo_gen.waxman: n must be positive";
  let xs = Float.Array.create n and ys = Float.Array.create n in
  for i = 0 to n - 1 do
    Float.Array.set xs i (Sim.Rng.float rng 1.0);
    Float.Array.set ys i (Sim.Rng.float rng 1.0)
  done;
  (* One flat triangle over the pairs: pair [u < v] sits at [pair u v],
     so a walk over [u], then [v > u], reads it in order.  It holds each
     pair's distance until the longest is known, then its decay factor
     [exp (-d / βl)], which the α sum and the edge draws share. *)
  let pair u v = (u * ((2 * n) - u - 1) / 2) + (v - u - 1) in
  let decay = Float.Array.create (n * (n - 1) / 2) in
  let l = ref 0.0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = distance xs ys u v in
      Float.Array.set decay (pair u v) d;
      if d > !l then l := d
    done
  done;
  let l = if !l = 0.0 then 1.0 else !l in
  (* A plain loop keeps the running sum unboxed; it adds in the pairs'
     order. *)
  let sum = ref 0.0 in
  for i = 0 to Float.Array.length decay - 1 do
    let q = exp (-.Float.Array.get decay i /. (beta *. l)) in
    Float.Array.set decay i q;
    sum := !sum +. q
  done;
  (* Solve  Σ_pairs α·exp(-d/βl) = n·degree/2  for α; a lone node has
     no pair and draws no edge. *)
  let alpha = Float.min 1.0 (float_of_int n *. degree /. (2.0 *. !sum)) in
  let g = Graph.create n in
  (* Weights are distances scaled away from zero: two coincident points
     would otherwise produce a zero-weight edge, which Graph rejects. *)
  let weight_of u v =
    Float.max 1e-6 (scale *. distance xs ys (Int.min u v) (Int.max u v))
  in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let p = alpha *. Float.Array.get decay (pair u v) in
      if Sim.Rng.float rng 1.0 < p then Graph.add_edge g u v ~weight:(weight_of u v)
    done
  done;
  connect_components g ~cost:weight_of ~weight:weight_of;
  g

let clustered rng ~areas ~per_area =
  if areas < 2 then invalid_arg "Topo_gen.clustered: need at least 2 areas";
  if per_area < 2 then invalid_arg "Topo_gen.clustered: need at least 2 per area";
  let n = areas * per_area in
  let g = Graph.create n in
  let partition =
    Array.init areas (fun a -> List.init per_area (fun i -> (a * per_area) + i))
  in
  (* Dense Waxman cluster inside each area, ids offset per area. *)
  for a = 0 to areas - 1 do
    let sub = waxman rng ~n:per_area in
    let base = a * per_area in
    List.iter
      (fun (e : Graph.edge) -> Graph.add_edge g (base + e.u) (base + e.v) ~weight:e.weight)
      (Graph.edges sub)
  done;
  (* Sparse long links between consecutive areas on a ring: two per
     pair. *)
  for a = 0 to areas - 1 do
    let b = (a + 1) mod areas in
    let picked = ref [] in
    let attempts = ref 0 in
    while List.length !picked < 2 && !attempts < 100 do
      incr attempts;
      let u = (a * per_area) + Sim.Rng.int rng per_area in
      let v = (b * per_area) + Sim.Rng.int rng per_area in
      if (not (Graph.has_edge g u v)) && not (List.mem (u, v) !picked) then begin
        picked := (u, v) :: !picked;
        Graph.add_edge g u v ~weight:20.0
      end
    done
  done;
  (g, partition)

(* Every edge of a regular topology weighs 1. *)
let weight = 1.0

let ring n =
  if n < 3 then invalid_arg "Topo_gen.ring: need at least 3 nodes";
  let g = Graph.create n in
  for i = 0 to n - 1 do
    Graph.add_edge g i ((i + 1) mod n) ~weight
  done;
  g

let line n =
  if n < 2 then invalid_arg "Topo_gen.line: need at least 2 nodes";
  let g = Graph.create n in
  for i = 0 to n - 2 do
    Graph.add_edge g i (i + 1) ~weight
  done;
  g

let star n =
  if n < 2 then invalid_arg "Topo_gen.star: need at least 2 nodes";
  let g = Graph.create n in
  for i = 1 to n - 1 do
    Graph.add_edge g 0 i ~weight
  done;
  g

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Topo_gen.grid: empty grid";
  let g = Graph.create (rows * cols) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let id = (r * cols) + c in
      if c + 1 < cols then Graph.add_edge g id (id + 1) ~weight;
      if r + 1 < rows then Graph.add_edge g id (id + cols) ~weight
    done
  done;
  g

let complete n =
  if n < 2 then invalid_arg "Topo_gen.complete: need at least 2 nodes";
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Graph.add_edge g u v ~weight
    done
  done;
  g
