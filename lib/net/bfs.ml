let hops g src =
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v _ ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let reachable g src = Array.map (fun d -> d <> max_int) (hops g src)

let is_connected g =
  let n = Graph.n_nodes g in
  n <= 1 || Array.for_all (fun r -> r) (reachable g 0)

let components g =
  let n = Graph.n_nodes g in
  let seen = Array.make n false in
  let comps = ref [] in
  for src = 0 to n - 1 do
    if not seen.(src) then begin
      let members = ref [] in
      let r = reachable g src in
      for v = 0 to n - 1 do
        if r.(v) then begin
          seen.(v) <- true;
          members := v :: !members
        end
      done;
      comps := List.rev !members :: !comps
    end
  done;
  List.rev !comps

let eccentricity g src =
  Array.fold_left
    (fun acc d -> if d <> max_int && d > acc then d else acc)
    0 (hops g src)

let hop_diameter g =
  let n = Graph.n_nodes g in
  let best = ref 0 in
  for src = 0 to n - 1 do
    let e = eccentricity g src in
    if e > !best then best := e
  done;
  !best
