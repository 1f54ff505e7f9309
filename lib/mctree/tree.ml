module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

(* The canonical form: the terminals ascending, and the edges as
   interleaved pairs [| u0; v0; u1; v1; ... |] with [u < v], ascending
   by (u, v).  Built on a tree value's first use and kept, so every
   later comparison, fingerprint and edge walk reads arrays. *)
type form = { f_terminals : int array; f_edges : int array }

(* [form] is a plain memo, not a [Lazy.t]: cells on several domains may
   race to build it, and both writes store equal values. *)
type t = {
  terminals : Int_set.t;
  adj : Int_set.t Int_map.t;
  mutable form : form option;
}

(* The only constructor: a fresh value never carries another's form. *)
let make terminals adj = { terminals; adj; form = None }

let empty =
  {
    terminals = Int_set.empty;
    adj = Int_map.empty;
    form = Some { f_terminals = [||]; f_edges = [||] };
  }

let of_terminals ts = make (Int_set.of_list ts) Int_map.empty

let neighbors t u = Option.value ~default:Int_set.empty (Int_map.find_opt u t.adj)

let attach a b adj = Int_map.add a (Int_set.add b (Option.value ~default:Int_set.empty (Int_map.find_opt a adj))) adj

let add_edge t u v =
  if u = v then invalid_arg "Tree.add_edge: self-loop";
  make t.terminals (attach u v (attach v u t.adj))

let remove_edge t u v =
  let detach a b adj =
    match Int_map.find_opt a adj with
    | None -> adj
    | Some set ->
      let set = Int_set.remove b set in
      if Int_set.is_empty set then Int_map.remove a adj else Int_map.add a set adj
  in
  make t.terminals (detach u v (detach v u t.adj))

let rec add_path t = function
  | [] | [ _ ] -> t
  | u :: (v :: _ as rest) -> add_path (add_edge t u v) rest

let add_terminal t x = make (Int_set.add x t.terminals) t.adj

let remove_terminal t x = make (Int_set.remove x t.terminals) t.adj

let with_terminals t ts = make (Int_set.of_list ts) t.adj

let of_edges ~terminals edges =
  List.fold_left
    (fun t (u, v) -> add_edge t u v)
    (of_terminals terminals) edges

(* A sorted copy of [keys]' first [m] entries, repeats dropped in place. *)
let canonical_keys keys m =
  let a = Array.sub keys 0 m in
  Array.sort Int.compare a;
  let len = ref (Int.min m 1) in
  for i = 1 to m - 1 do
    if a.(i) <> a.(!len - 1) then begin a.(!len) <- a.(i); incr len end
  done;
  if !len = m then a else Array.sub a 0 !len

let of_canonical_keys ~n ~terminals keys =
  let f_edges = Array.make (2 * Array.length keys) 0 and adj = ref Int_map.empty in
  Array.iteri
    (fun i key ->
      let u = key / n and v = key mod n in
      f_edges.(2 * i) <- u;
      f_edges.((2 * i) + 1) <- v;
      adj := attach u v (attach v u !adj))
    keys;
  let form = Some { f_terminals = Array.of_list terminals; f_edges } in
  { terminals = Int_set.of_list terminals; adj = !adj; form }

let terminals t = t.terminals

let has_edges t = not (Int_map.is_empty t.adj)

(* The edges' ends, then the terminals, without building [nodes]: a node
   seen twice is the same candidate twice. *)
let nearest (r : Net.Dijkstra.result) t ~except =
  let best = ref (-1) in
  let consider v =
    let d = r.dist.(v) and near = if !best < 0 then infinity else r.dist.(!best) in
    if v <> except && (d < near || (d = near && v < !best)) then best := v
  in
  Int_map.iter (fun u _ -> consider u) t.adj;
  Int_set.iter consider t.terminals;
  !best

let nodes t =
  Int_map.fold (fun u _ acc -> Int_set.add u acc) t.adj t.terminals

let compare_edge (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

(* Every edge sits in [adj] under both endpoints, so walking the map
   ascending and keeping [u < v] yields the pairs already sorted. *)
let build_form t =
  let f_terminals = Array.make (Int_set.cardinal t.terminals) 0 in
  let i = ref 0 in
  Int_set.iter (fun x -> f_terminals.(!i) <- x; incr i) t.terminals;
  let degrees = Int_map.fold (fun _ nbrs acc -> acc + Int_set.cardinal nbrs) t.adj 0 in
  let f_edges = Array.make degrees 0 in
  let i = ref 0 in
  Int_map.iter
    (fun u nbrs ->
      Int_set.iter
        (fun v ->
          if u < v then begin
            f_edges.(!i) <- u;
            f_edges.(!i + 1) <- v;
            i := !i + 2
          end)
        nbrs)
    t.adj;
  { f_terminals; f_edges }

let form t =
  match t.form with
  | Some f -> f
  | None ->
    let f = build_form t in
    t.form <- Some f;
    f

let edges t =
  let a = (form t).f_edges in
  let rec go i acc = if i < 0 then acc else go (i - 2) ((a.(i), a.(i + 1)) :: acc) in
  go (Array.length a - 2) []

let n_edges t = Array.length (form t).f_edges / 2

let mem_edge t u v = Int_set.mem v (neighbors t u)

let mem_node t x = Int_map.mem x t.adj || Int_set.mem x t.terminals

let is_terminal t x = Int_set.mem x t.terminals

let cost g t =
  let a = (form t).f_edges in
  let acc = ref 0.0 in
  for i = 0 to (Array.length a / 2) - 1 do
    acc := !acc +. Net.Graph.weight g a.(2 * i) a.((2 * i) + 1)
  done;
  !acc

(* The shape of a canonical form, from one union-find pass over its
   edges: whether the edges form one tree (none at all qualifies) and
   whether every terminal lies in one component.  The scratch [parent]
   array spans the edges' ids ([-1]: no edge there yet); a terminal
   outside it has no edge.  Distinct terminals that share a root are
   joined by edges, so "one root" is all [spans_terminals] asks. *)
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

let shape t =
  let f = form t in
  let e = f.f_edges and ts = f.f_terminals in
  let n_terms = Array.length ts in
  if Array.length e = 0 then (true, n_terms <= 1)
  else begin
    (* Edges are sorted by their smaller end, so [e.(0)] is the least id. *)
    let lo = e.(0) and hi = ref e.(1) in
    for i = 1 to (Array.length e / 2) - 1 do
      if e.((2 * i) + 1) > !hi then hi := e.((2 * i) + 1)
    done;
    let parent = Array.make (!hi - lo + 1) (-1) in
    let nodes = ref 0 and acyclic = ref true in
    for i = 0 to (Array.length e / 2) - 1 do
      let u = e.(2 * i) - lo and v = e.((2 * i) + 1) - lo in
      if parent.(u) < 0 then begin parent.(u) <- u; incr nodes end;
      if parent.(v) < 0 then begin parent.(v) <- v; incr nodes end;
      let ru = find parent u and rv = find parent v in
      if ru = rv then acyclic := false else parent.(ru) <- rv
    done;
    let is_tree = !acyclic && !nodes = (Array.length e / 2) + 1 in
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
  let a = (form t).f_edges in
  let up = ref true and i = ref 0 in
  while !up && !i < Array.length a do
    up := Net.Graph.link_is_up g a.(!i) a.(!i + 1);
    i := !i + 2
  done;
  !up

let is_valid_mc_topology g t =
  let is_tree, spans = shape t in
  is_tree && spans && is_embedded g t

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
           (fun t u ->
             Int_set.fold (fun v t -> remove_edge t u v) (neighbors t u) t)
           t removable)
  in
  go t

let path_between t src dst =
  if not (mem_node t src && mem_node t dst) then None
  else if src = dst then Some [ src ]
  else begin
    (* DFS with parent tracking; the tree path is unique when it exists. *)
    let rec search u parent path =
      if u = dst then Some (List.rev (u :: path))
      else
        Int_set.fold
          (fun v found ->
            match found with
            | Some _ -> found
            | None -> (
              match parent with
              | Some p when p = v -> None
              | _ -> search v (Some u) (u :: path)))
          (neighbors t u) None
    in
    search src None []
  end

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

(* Lexicographic, a proper prefix first: the order of [Int_set.compare]
   on the terminals and of [List.compare compare_edge] on the edges. *)
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
    let fa = form a and fb = form b in
    match compare_ints_from fa.f_terminals fb.f_terminals 0 with
    | 0 -> compare_ints_from fa.f_edges fb.f_edges 0
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
  let f = form t in
  let b = Buffer.create 48 in
  Buffer.add_string b "T{";
  add_edges b "," f.f_edges;
  Buffer.add_char b '|';
  add_ints b "," f.f_terminals;
  Buffer.add_char b '}';
  Buffer.contents b

let to_string t =
  let f = form t in
  let b = Buffer.create 48 in
  Buffer.add_string b "tree terminals={";
  add_ints b ", " f.f_terminals;
  Buffer.add_string b "} edges=[";
  add_edges b "; " f.f_edges;
  Buffer.add_char b ']';
  Buffer.contents b

(* The rendering sits in a horizontal box, as it always has: a box
   opened past the margin's indentation limit makes an enclosing box
   break the line before it, and pinned messages carry that break. *)
let pp ppf t = Format.fprintf ppf "@[<h>%s@]" (to_string t)
