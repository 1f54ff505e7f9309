let connect_components g positions weight_of =
  (* Repeatedly join the two closest nodes lying in different components.
     [positions] gives coordinates when available (geometric generators);
     otherwise the node pair with the smallest weight_of value is used. *)
  let rec join () =
    match Bfs.components g with
    | [] | [ _ ] -> ()
    | comps ->
      let best = ref None in
      let consider u v =
        let w = weight_of u v in
        match !best with
        | Some (_, _, w') when w' <= w -> ()
        | _ -> best := Some (u, v, w)
      in
      let rec pairs = function
        | [] -> ()
        | comp :: rest ->
          List.iter
            (fun u ->
              List.iter (fun comp' -> List.iter (fun v -> consider u v) comp') rest)
            comp;
          pairs rest
      in
      pairs comps;
      (match !best with
      | Some (u, v, w) -> Graph.add_edge g u v ~weight:w
      | None -> assert false);
      join ()
  in
  ignore positions;
  join ()

let waxman rng ~n ?target_degree () =
  (* Edge-probability scale, distance decay, and the factor turning
     distances into edge weights. *)
  let alpha = 0.25 and beta = 0.2 and scale = 10.0 in
  if n < 1 then invalid_arg "Topo_gen.waxman: n must be positive";
  let pos = Array.init n (fun _ ->
      let x = Sim.Rng.float rng 1.0 in
      let y = Sim.Rng.float rng 1.0 in
      (x, y))
  in
  let dist u v =
    let xu, yu = pos.(u) and xv, yv = pos.(v) in
    sqrt (((xu -. xv) ** 2.0) +. ((yu -. yv) ** 2.0))
  in
  let l = ref 0.0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if dist u v > !l then l := dist u v
    done
  done;
  let l = if !l = 0.0 then 1.0 else !l in
  let alpha =
    match target_degree with
    | None -> alpha
    | Some degree ->
      (* Solve  Σ_pairs α·exp(-d/βl) = n·degree/2  for α. *)
      let sum = ref 0.0 in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          sum := !sum +. exp (-.dist u v /. (beta *. l))
        done
      done;
      if !sum <= 0.0 then alpha
      else Float.min 1.0 (float_of_int n *. degree /. (2.0 *. !sum))
  in
  let g = Graph.create n in
  (* Weights are distances scaled away from zero: two coincident points
     would otherwise produce a zero-weight edge, which Graph rejects. *)
  let weight_of u v = Float.max 1e-6 (scale *. dist u v) in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let p = alpha *. exp (-.dist u v /. (beta *. l)) in
      if Sim.Rng.float rng 1.0 < p then Graph.add_edge g u v ~weight:(weight_of u v)
    done
  done;
  connect_components g (Some pos) weight_of;
  g

let clustered rng ~areas ~per_area ?(inter_links = 2) ?(target_degree = 3.5) () =
  if areas < 2 then invalid_arg "Topo_gen.clustered: need at least 2 areas";
  if per_area < 2 then invalid_arg "Topo_gen.clustered: need at least 2 per area";
  if inter_links < 1 then invalid_arg "Topo_gen.clustered: need inter links";
  let n = areas * per_area in
  let g = Graph.create n in
  let partition =
    Array.init areas (fun a -> List.init per_area (fun i -> (a * per_area) + i))
  in
  (* Dense Waxman cluster inside each area, ids offset per area. *)
  Array.iteri
    (fun a members ->
      let sub = waxman rng ~n:per_area ~target_degree () in
      let base = a * per_area in
      List.iter
        (fun (e : Graph.edge) -> Graph.add_edge g (base + e.u) (base + e.v) ~weight:e.weight)
        (Graph.edges sub);
      ignore members)
    partition;
  (* Sparse long links between consecutive areas on a ring. *)
  for a = 0 to areas - 1 do
    let b = (a + 1) mod areas in
    let picked = ref [] in
    let attempts = ref 0 in
    while List.length !picked < inter_links && !attempts < 100 do
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

let erdos_renyi rng ~n ?(min_weight = 1.0) ?(max_weight = 10.0) () =
  if n < 1 then invalid_arg "Topo_gen.erdos_renyi: n must be positive";
  if min_weight <= 0.0 || max_weight < min_weight then
    invalid_arg "Topo_gen.erdos_renyi: bad weight range";
  (* Mean degree about 3. *)
  let p = 3.0 /. float_of_int n in
  let g = Graph.create n in
  let draw_weight () =
    if max_weight = min_weight then min_weight
    else min_weight +. Sim.Rng.float rng (max_weight -. min_weight)
  in
  (* Pre-drawn weights keep the rng stream identical whether or not an edge
     appears, and provide weights for the connecting step. *)
  let weight_of u v = ignore u; ignore v; draw_weight () in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Sim.Rng.float rng 1.0 < p then Graph.add_edge g u v ~weight:(draw_weight ())
    done
  done;
  connect_components g None weight_of;
  g

let check_weight w = if w <= 0.0 then invalid_arg "Topo_gen: weight must be positive"

let ring ?(weight = 1.0) n =
  check_weight weight;
  if n < 3 then invalid_arg "Topo_gen.ring: need at least 3 nodes";
  let g = Graph.create n in
  for i = 0 to n - 1 do
    Graph.add_edge g i ((i + 1) mod n) ~weight
  done;
  g

let line ?(weight = 1.0) n =
  check_weight weight;
  if n < 2 then invalid_arg "Topo_gen.line: need at least 2 nodes";
  let g = Graph.create n in
  for i = 0 to n - 2 do
    Graph.add_edge g i (i + 1) ~weight
  done;
  g

let star ?(weight = 1.0) n =
  check_weight weight;
  if n < 2 then invalid_arg "Topo_gen.star: need at least 2 nodes";
  let g = Graph.create n in
  for i = 1 to n - 1 do
    Graph.add_edge g 0 i ~weight
  done;
  g

let grid ?(weight = 1.0) ~rows ~cols () =
  check_weight weight;
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

let complete ?(weight = 1.0) n =
  check_weight weight;
  if n < 2 then invalid_arg "Topo_gen.complete: need at least 2 nodes";
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Graph.add_edge g u v ~weight
    done
  done;
  g

let binary_tree ?(weight = 1.0) n =
  check_weight weight;
  if n < 1 then invalid_arg "Topo_gen.binary_tree: need at least 1 node";
  let g = Graph.create n in
  for i = 0 to n - 1 do
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    if left < n then Graph.add_edge g i left ~weight;
    if right < n then Graph.add_edge g i right ~weight
  done;
  g
