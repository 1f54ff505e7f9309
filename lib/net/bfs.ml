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
   targets.(offsets.(u + 1) - 1)] are [u]'s live neighbours.  The
   searches run [Sys.int_size] sources to a pass, one bit each, level by
   level: [seen.(v)] holds the bits of the sources that have reached
   [v], [front.(v)] those that reached it at the last level, and the
   next level is [(lor of front.(u) over v's neighbours u) land lnot
   seen.(v)].  A pass lasts as many levels as its sources' largest
   eccentricity. *)
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
  let seen = Array.make n 0 and front = Array.make n 0 and next = Array.make n 0 in
  let best = ref 0 and base = ref 0 in
  while !base < n do
    Array.fill seen 0 n 0;
    Array.fill front 0 n 0;
    for i = 0 to Int.min Sys.int_size (n - !base) - 1 do
      seen.(!base + i) <- 1 lsl i;
      front.(!base + i) <- 1 lsl i
    done;
    let levels = ref 0 and moved = ref true in
    while !moved do
      moved := false;
      for v = 0 to n - 1 do
        let reach = ref 0 in
        for i = offsets.(v) to offsets.(v + 1) - 1 do
          reach := !reach lor front.(targets.(i))
        done;
        let fresh = !reach land lnot seen.(v) in
        next.(v) <- fresh;
        if fresh <> 0 then begin
          seen.(v) <- seen.(v) lor fresh;
          moved := true
        end
      done;
      if !moved then begin
        incr levels;
        Array.blit next 0 front 0 n
      end
    done;
    if !levels > !best then best := !levels;
    base := !base + Sys.int_size
  done;
  !best

let hop_diameter g = Graph.memo_hop_diameter g sweep
