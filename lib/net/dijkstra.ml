type result = { dist : float array; pred : int array }

(* Binary min-heap over two parallel arrays: unboxed distance keys and
   their nodes.  Entries are never decreased in place; an improved
   distance is pushed again and stale entries are skipped when popped.
   The sift rules must stay exactly those of the oracle's heap, which
   the reference Dijkstra in [test/test_oracles.ml] uses (strict [< 0]
   comparisons, left child before right, last slot moved to the root on
   pop): they fix the order in which equal-distance nodes settle, which
   picks the predecessors on unit-weight graphs that the golden fixtures
   pin.  An indexed decrease-key heap would change that order. *)
type heap = {
  mutable keys : float array;
  mutable nodes : int array;
  mutable size : int;
}

let swap h i j =
  let k = h.keys.(i) and x = h.nodes.(i) in
  h.keys.(i) <- h.keys.(j);
  h.nodes.(i) <- h.nodes.(j);
  h.keys.(j) <- k;
  h.nodes.(j) <- x

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if Float.compare h.keys.(i) h.keys.(parent) < 0 then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && Float.compare h.keys.(left) h.keys.(!smallest) < 0 then
    smallest := left;
  if right < h.size && Float.compare h.keys.(right) h.keys.(!smallest) < 0
  then smallest := right;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let grow h =
  let capacity = 2 * Array.length h.nodes in
  let keys = Array.make capacity 0.0 and nodes = Array.make capacity 0 in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.nodes 0 nodes 0 h.size;
  h.keys <- keys;
  h.nodes <- nodes

(* Inlined so the key reaches the array unboxed. *)
let[@inline] push h key node =
  if h.size = Array.length h.nodes then grow h;
  h.keys.(h.size) <- key;
  h.nodes.(h.size) <- node;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

(* Drops the root; callers read [keys.(0)]/[nodes.(0)] first. *)
let remove_top h =
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.keys.(0) <- h.keys.(h.size);
    h.nodes.(0) <- h.nodes.(h.size);
    sift_down h 0
  end

let run_impl g src =
  let n = Graph.n_nodes g in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let settled = Bytes.make n '\000' in
  (* Every reachable node is pushed at least once, so [n] slots rarely
     need to grow. *)
  let capacity = Int.max n 1 in
  let heap =
    { keys = Array.make capacity 0.0; nodes = Array.make capacity 0; size = 0 }
  in
  dist.(src) <- 0.0;
  push heap 0.0 src;
  (* The node being settled.  One relaxation closure serves the whole
     run; it reads [u]'s distance from [dist], which equals the popped
     key because settled distances never improve. *)
  let u = ref src in
  let relax v w =
    let candidate = dist.(!u) +. w in
    if candidate < dist.(v) then begin
      dist.(v) <- candidate;
      pred.(v) <- !u;
      push heap candidate v
    end
  in
  while heap.size > 0 do
    let x = heap.nodes.(0) in
    remove_top heap;
    if Bytes.get settled x = '\000' then begin
      Bytes.set settled x '\001';
      u := x;
      Graph.iter_neighbors g x relax
    end
  done;
  { dist; pred }

(* A miss runs the search inside its phase; a hit costs no phase enter
   or leave, so [net.dijkstra.calls] counts searches actually run.  The
   wrapper is written out (no closure) so a disabled recorder costs two
   branches and zero allocation per search. *)
let search g src =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "net.dijkstra";
  match run_impl g src with
  | r ->
    Metrics.Phase.leave ph;
    (r.dist, r.pred)
  | exception e ->
    Metrics.Phase.leave ph;
    raise e

let run g src =
  let dist, pred = Graph.memo_search g src search in
  { dist; pred }

let distance g src dst = (run g src).dist.(dst)

let path_of_result r ~src ~dst =
  if not (Float.is_finite r.dist.(dst)) then None
  else begin
    let rec walk v acc =
      if v = src then v :: acc
      else begin
        let p = r.pred.(v) in
        (* A finite distance implies a pred chain back to [src]. *)
        assert (p >= 0);
        walk p (v :: acc)
      end
    in
    Some (walk dst [])
  end

let path g ~src ~dst = path_of_result (run g src) ~src ~dst

let all_pairs g =
  Array.init (Graph.n_nodes g) (fun src -> (run g src).dist)
