(* Every search here queues into a flat int array: a node enters the
   queue at most once, so [n] slots suffice and the walk allocates nothing
   per node. *)

let hops g src =
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int and queue = Array.make n 0 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 and next = ref 0 in
  let visit v _ =
    if dist.(v) = max_int then begin
      dist.(v) <- !next;
      queue.(!tail) <- v;
      incr tail
    end
  in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    next := dist.(u) + 1;
    Graph.iter_neighbors g u visit
  done;
  dist

let reachable g src = Array.map (fun d -> d <> max_int) (hops g src)

let is_connected g =
  let n = Graph.n_nodes g in
  n <= 1 || Array.for_all (fun r -> r) (reachable g 0)

let components g =
  let n = Graph.n_nodes g in
  (* One search per component over a shared label array; sources ascend,
     so labels number the components by smallest member. *)
  let label = Array.make n (-1) and queue = Array.make n 0 in
  let count = ref 0 and tail = ref 0 in
  let visit v _ =
    if label.(v) < 0 then begin
      label.(v) <- !count;
      queue.(!tail) <- v;
      incr tail
    end
  in
  for src = 0 to n - 1 do
    if label.(src) < 0 then begin
      label.(src) <- !count;
      queue.(0) <- src;
      tail := 1;
      let head = ref 0 in
      while !head < !tail do
        Graph.iter_neighbors g queue.(!head) visit;
        incr head
      done;
      incr count
    end
  done;
  let comps = Array.make !count [] in
  for v = n - 1 downto 0 do
    comps.(label.(v)) <- v :: comps.(label.(v))
  done;
  Array.to_list comps

(* The live links as flat adjacency (CSR): [targets.(offsets.(u)) ..
   targets.(offsets.(u + 1) - 1)] are [u]'s live neighbours.  Each source's
   search marks the nodes it reaches with its own id in [stamp], so no
   array is cleared between searches; the last node it dequeues is the
   farthest. *)
let sweep g =
  let n = Graph.n_nodes g in
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + Graph.degree g u
  done;
  let targets = Array.make offsets.(n) 0 and fill = ref 0 in
  let push v _ =
    targets.(!fill) <- v;
    incr fill
  in
  for u = 0 to n - 1 do
    Graph.iter_neighbors g u push
  done;
  let stamp = Array.make n (-1) and depth = Array.make n 0 and queue = Array.make n 0 in
  let best = ref 0 in
  for src = 0 to n - 1 do
    stamp.(src) <- src;
    depth.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let d = depth.(u) + 1 in
      for i = offsets.(u) to offsets.(u + 1) - 1 do
        let v = targets.(i) in
        if stamp.(v) <> src then begin
          stamp.(v) <- src;
          depth.(v) <- d;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    let e = depth.(queue.(!tail - 1)) in
    if e > !best then best := e
  done;
  !best

let hop_diameter g = Graph.memo_hop_diameter g sweep
