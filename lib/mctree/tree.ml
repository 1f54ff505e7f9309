(* A tree is its canonical form: the terminals ascending, and the edges
   as interleaved pairs [| u0; v0; u1; v1; ... |] with [u < v],
   ascending by (u, v), each pair once.  Every operation builds fresh
   arrays; none is written after its tree is built. *)
type t = { terminals : int array; edges : int array }

let empty = { terminals = [||]; edges = [||] }

let sorted_ints l = Array.of_list (List.sort_uniq Int.compare l)

let of_terminals ts = { terminals = sorted_ints ts; edges = [||] }

(* The key of edge [u]-[v] over [n] ids: [u * n + v] with [u < v]. *)
let key n u v =
  if u = v then invalid_arg "Tree: self-loop";
  if u < 0 || v < 0 then invalid_arg "Tree: negative node";
  (Int.min u v * n) + Int.max u v

(* [keys]' first [m] entries sorted, repeats dropped, as edge pairs; a
   full [keys] is sorted in place. *)
let pairs_of_keys ~n keys m =
  let a = if m = Array.length keys then keys else Array.sub keys 0 m in
  Array.sort Int.compare a;
  let len = ref (Int.min m 1) in
  for i = 1 to m - 1 do
    if a.(i) <> a.(!len - 1) then begin a.(!len) <- a.(i); incr len end
  done;
  let e = Array.make (2 * !len) 0 in
  for i = 0 to !len - 1 do
    e.(2 * i) <- a.(i) / n;
    e.((2 * i) + 1) <- a.(i) mod n
  done;
  e

let of_edge_keys ~n ~terminals keys m =
  { terminals = Array.of_list terminals; edges = pairs_of_keys ~n keys m }

(* The keys of [t]'s edges and the path's over the ids spanned, in one
   fresh array sorted in place. *)
let add_path t path =
  let e = t.edges and m = Array.length t.edges / 2 in
  let n = 1 + List.fold_left Int.max (Array.fold_left Int.max 0 e) path in
  let keys = Array.make (m + Int.max 0 (List.length path - 1)) 0 in
  for i = 0 to m - 1 do
    keys.(i) <- (e.(2 * i) * n) + e.((2 * i) + 1)
  done;
  let rec fill i = function
    | u :: (v :: _ as rest) ->
      keys.(i) <- key n u v;
      fill (i + 1) rest
    | [] | [ _ ] -> ()
  in
  fill m path;
  { t with edges = pairs_of_keys ~n keys (Array.length keys) }

let of_edges ~terminals edges =
  let n = 1 + List.fold_left (fun acc (u, v) -> Int.max acc (Int.max u v)) 0 edges in
  let keys = Array.of_list (List.map (fun (u, v) -> key n u v) edges) in
  let edges = pairs_of_keys ~n keys (Array.length keys) in
  { terminals = sorted_ints terminals; edges }

(* [t] with the edges whose index satisfies [keep]; [t] itself when
   every edge is kept. *)
let select t keep =
  let e = t.edges in
  let kept = ref 0 in
  for i = 0 to (Array.length e / 2) - 1 do
    if keep i then incr kept
  done;
  if 2 * !kept = Array.length e then t
  else begin
    let out = Array.make (2 * !kept) 0 and k = ref 0 in
    for i = 0 to (Array.length e / 2) - 1 do
      if keep i then begin
        out.(!k) <- e.(2 * i);
        out.(!k + 1) <- e.((2 * i) + 1);
        k := !k + 2
      end
    done;
    { t with edges = out }
  end

let filter_edges f t = select t (fun i -> f t.edges.(2 * i) t.edges.((2 * i) + 1))

(* The index of [a]'s first entry not below [x]. *)
let rank a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let is_terminal t x =
  let i = rank t.terminals x in
  i < Array.length t.terminals && t.terminals.(i) = x

let with_terminals t ts = { t with terminals = sorted_ints ts }

let terminals t = Array.to_list t.terminals

let add_terminal t x =
  let a = t.terminals and i = rank t.terminals x in
  if i < Array.length a && a.(i) = x then t
  else
    let at j = if j < i then a.(j) else if j = i then x else a.(j - 1) in
    { t with terminals = Array.init (Array.length a + 1) at }

let remove_terminal t x =
  let a = t.terminals and i = rank t.terminals x in
  if i = Array.length a || a.(i) <> x then t
  else
    let at j = a.(if j < i then j else j + 1) in
    { t with terminals = Array.init (Array.length a - 1) at }

let n_terminals t = Array.length t.terminals

let has_edges t = Array.length t.edges > 0

(* Scanning backwards and consing gives ascending order: the pairs
   [(w, u)], [w < u], come first in the array, ascending by [w], and
   then the pairs [(u, w)], ascending by [w]. *)
let neighbors t u =
  let e = t.edges and acc = ref [] in
  for i = (Array.length e / 2) - 1 downto 0 do
    if e.(2 * i) = u then acc := e.((2 * i) + 1) :: !acc
    else if e.((2 * i) + 1) = u then acc := e.(2 * i) :: !acc
  done;
  !acc

let rec mem_from (a : int array) x i =
  i < Array.length a && (a.(i) = x || mem_from a x (i + 1))

let mem_node t x = is_terminal t x || mem_from t.edges x 0

let rec mem_pair_from (a : int array) u v i =
  i < Array.length a && ((a.(i) = u && a.(i + 1) = v) || mem_pair_from a u v (i + 2))

let mem_edge t u v = mem_pair_from t.edges (Int.min u v) (Int.max u v) 0

(* The edges' ends, then the terminals: a node seen twice is the same
   candidate twice. *)
let nearest (r : Net.Dijkstra.result) t ~except =
  let best = ref (-1) in
  let consider v =
    let d = r.dist.(v) and near = if !best < 0 then infinity else r.dist.(!best) in
    if v <> except && (d < near || (d = near && v < !best)) then best := v
  in
  Array.iter consider t.edges;
  Array.iter consider t.terminals;
  !best

let compare_edge (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

let edges t =
  let a = t.edges in
  let rec go i acc = if i < 0 then acc else go (i - 2) ((a.(i), a.(i + 1)) :: acc) in
  go (Array.length a - 2) []

let cost g t =
  let a = t.edges in
  let acc = ref 0.0 in
  for i = 0 to (Array.length a / 2) - 1 do
    acc := !acc +. Net.Graph.weight g a.(2 * i) a.((2 * i) + 1)
  done;
  !acc

let rec find parent x =
  let p = parent.(x) in
  if p = x then x
  else begin
    let r = find parent p in
    parent.(x) <- r;
    r
  end

(* The root of [i]'s component, or [-1] when no edge touches [i]. *)
let root parent i =
  if i < 0 || i >= Array.length parent || parent.(i) < 0 then -1
  else find parent i

(* The number of ids a non-empty edge array spans: edges are sorted by
   their smaller end, so [e.(0)] is the least. *)
let span e =
  let hi = ref e.(1) in
  for i = 1 to (Array.length e / 2) - 1 do
    if e.((2 * i) + 1) > !hi then hi := e.((2 * i) + 1)
  done;
  !hi - e.(0) + 1

(* One union-find pass over a non-empty edge array: the scratch
   [parent] array over the ids from [e.(0)] on ([-1]: no edge there),
   whether no edge closed a cycle, and the number of distinct nodes. *)
let union_find e =
  let lo = e.(0) in
  let parent = Array.make (span e) (-1) in
  let nodes = ref 0 and acyclic = ref true in
  for i = 0 to (Array.length e / 2) - 1 do
    let u = e.(2 * i) - lo and v = e.((2 * i) + 1) - lo in
    if parent.(u) < 0 then begin parent.(u) <- u; incr nodes end;
    if parent.(v) < 0 then begin parent.(v) <- v; incr nodes end;
    let ru = find parent u and rv = find parent v in
    if ru = rv then acyclic := false else parent.(ru) <- rv
  done;
  (parent, !acyclic, !nodes)

(* Whether the edges form one tree (none at all qualifies) and whether
   every terminal lies in one component.  A terminal outside [parent]'s
   span has no edge; distinct terminals that share a root are joined by
   edges, so "one root" is all [spans_terminals] asks. *)
let shape t =
  let e = t.edges and ts = t.terminals in
  let n_terms = Array.length ts in
  if Array.length e = 0 then (true, n_terms <= 1)
  else begin
    let lo = e.(0) and parent, acyclic, nodes = union_find e in
    let is_tree = acyclic && nodes = (Array.length e / 2) + 1 in
    let spans =
      n_terms <= 1
      ||
      let r = root parent (ts.(0) - lo) in
      let ok = ref (r >= 0) and k = ref 1 in
      while !ok && !k < n_terms do
        ok := root parent (ts.(!k) - lo) = r;
        incr k
      done;
      !ok
    in
    (is_tree, spans)
  end

let is_tree t = fst (shape t)

let spans_terminals t = snd (shape t)

let is_embedded g t =
  let a = t.edges in
  let up = ref true and i = ref 0 in
  while !up && !i < Array.length a do
    up := Net.Graph.link_is_up g a.(!i) a.(!i + 1);
    i := !i + 2
  done;
  !up

let is_valid_mc_topology g t =
  let is_tree, spans = shape t in
  is_tree && spans && is_embedded g t

let fragment t x =
  let e = t.edges and alone = { terminals = [| x |]; edges = [||] } in
  if Array.length e = 0 then alone
  else begin
    let lo = e.(0) and parent, _, _ = union_find e in
    let r = root parent (x - lo) in
    if r < 0 then alone
    else
      select { t with terminals = alone.terminals } (fun i ->
          find parent (e.(2 * i) - lo) = r)
  end

(* Each pass strips every edge with a non-terminal end on no other
   edge, counted per id in one byte that stops at two, until a pass
   strips none. *)
let rec prune t =
  let e = t.edges in
  if Array.length e = 0 then t
  else begin
    let lo = e.(0) in
    let seen = Bytes.make (span e) '\000' in
    let count u = if Bytes.get seen (u - lo) = '\000' then '\001' else '\002' in
    Array.iter (fun u -> Bytes.set seen (u - lo) (count u)) e;
    let stray u = Bytes.get seen (u - lo) = '\001' && not (is_terminal t u) in
    let kept = select t (fun i -> not (stray e.(2 * i) || stray e.((2 * i) + 1))) in
    if kept == t then t else prune kept
  end

(* Lexicographic, a proper prefix first: the order of [Set.compare] on
   the terminals and of [List.compare compare_edge] on the edges. *)
let rec compare_ints_from (a : int array) (b : int array) i =
  if i = Array.length a then if i = Array.length b then 0 else -1
  else if i = Array.length b then 1
  else
    match Int.compare a.(i) b.(i) with
    | 0 -> compare_ints_from a b (i + 1)
    | c -> c

let compare a b =
  if a == b then 0
  else
    match compare_ints_from a.terminals b.terminals 0 with
    | 0 -> compare_ints_from a.edges b.edges 0
    | c -> c

let equal a b = compare a b = 0

(* The renderers' pieces: [ints] with [sep] between them, and the
   interleaved [edges] as "u-v" with [sep] between them. *)
let add_ints b sep ints =
  Array.iteri
    (fun i n ->
      if i > 0 then Buffer.add_string b sep;
      Buffer.add_string b (string_of_int n))
    ints

let add_edges b sep edges =
  for i = 0 to (Array.length edges / 2) - 1 do
    if i > 0 then Buffer.add_string b sep;
    Buffer.add_string b (string_of_int edges.(2 * i));
    Buffer.add_char b '-';
    Buffer.add_string b (string_of_int edges.((2 * i) + 1))
  done

let fingerprint t =
  let b = Buffer.create 48 in
  Buffer.add_string b "T{";
  add_edges b "," t.edges;
  Buffer.add_char b '|';
  add_ints b "," t.terminals;
  Buffer.add_char b '}';
  Buffer.contents b

let to_string t =
  let b = Buffer.create 48 in
  Buffer.add_string b "tree terminals={";
  add_ints b ", " t.terminals;
  Buffer.add_string b "} edges=[";
  add_edges b "; " t.edges;
  Buffer.add_char b ']';
  Buffer.contents b

(* The rendering sits in a horizontal box, as it always has: a box
   opened past the margin's indentation limit makes an enclosing box
   break the line before it, and pinned messages carry that break. *)
let pp ppf t = Format.fprintf ppf "@[<h>%s@]" (to_string t)
