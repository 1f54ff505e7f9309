type edge = { u : int; v : int; weight : float }

type link = { w : float; mutable up : bool }

type t = {
  n : int;
  (* adj.(u) maps each neighbour v to the shared link record, so flipping
     a link's state is visible from both endpoints. *)
  adj : (int, link) Hashtbl.t array;
  (* Sorted adjacency rows (neighbour id ascending), built lazily from
     [adj] and invalidated by [add_edge] only: [set_link] mutates the
     shared [link] records the rows reference, so [up] reads stay live.
     The cache keeps the sort out of hot loops — [iter_neighbors] runs
     per settled node inside Dijkstra — while giving every enumeration a
     deterministic order. *)
  mutable rows : (int * link) list option array;
  (* Bumped by every mutation that can change a computed route: an added
     edge, or a link whose state actually flips.  Consumers that memoise
     results over the graph key them on this. *)
  mutable version : int;
  (* [Bfs.hop_diameter]'s last result and the version it was computed at,
     one immutable pair so a reader never matches a value to the wrong
     version. *)
  mutable hop_diameter : int * int;
  (* [Dijkstra.run]'s results by source and the version they hold for,
     again one immutable pair.  A mutation drops them ([bump]); the slots
     are allocated by the first search at the new version.  [-1] is no
     graph's version, so a fresh graph or {!copy} (version [0]) starts
     with an empty memo. *)
  mutable searches : int * (float array * int array) option array;
}

let no_searches = (-1, [||])

let create n =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  {
    n;
    adj = Array.init n (fun _ -> Hashtbl.create 4);
    rows = Array.make n None;
    version = 0;
    hop_diameter = (-1, 0);
    searches = no_searches;
  }

let n_nodes t = t.n

let version t = t.version

let memo_hop_diameter t compute =
  let version, value = t.hop_diameter in
  if version = t.version then value
  else begin
    let value = compute t in
    t.hop_diameter <- (t.version, value);
    value
  end

(* Domains racing on one unmutated graph may each allocate the slots or
   run a search; the losing write stores an equal value. *)
let memo_search t src compute =
  let version, slots = t.searches in
  let slots =
    if version = t.version then slots
    else begin
      let slots = Array.make t.n None in
      t.searches <- (t.version, slots);
      slots
    end
  in
  match slots.(src) with
  | Some r -> r
  | None ->
    let r = compute t src in
    slots.(src) <- Some r;
    r

(* Dropping the old version's searches at once frees results no reader
   can match again, rather than holding them until the next search. *)
let bump t =
  t.version <- t.version + 1;
  t.searches <- no_searches

let check_node t x =
  if x < 0 || x >= t.n then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0, %d)" x t.n)

let add_edge t u v ~weight =
  check_node t u;
  check_node t v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if weight <= 0.0 || not (Float.is_finite weight) then
    invalid_arg "Graph.add_edge: weight must be finite and positive";
  if Hashtbl.mem t.adj.(u) v then
    invalid_arg (Printf.sprintf "Graph.add_edge: edge (%d, %d) exists" u v);
  let link = { w = weight; up = true } in
  Hashtbl.replace t.adj.(u) v link;
  Hashtbl.replace t.adj.(v) u link;
  t.rows.(u) <- None;
  t.rows.(v) <- None;
  bump t

let row t u =
  match t.rows.(u) with
  | Some r -> r
  | None ->
    let r =
      Hashtbl.fold (fun v l acc -> (v, l) :: acc) t.adj.(u) []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    t.rows.(u) <- Some r;
    r

let of_edges n list =
  let t = create n in
  List.iter (fun (u, v, w) -> add_edge t u v ~weight:w) list;
  t

let find_link t u v =
  check_node t u;
  check_node t v;
  Hashtbl.find_opt t.adj.(u) v

let has_edge t u v = find_link t u v <> None

let weight t u v =
  match find_link t u v with Some l -> l.w | None -> raise Not_found

let link_is_up t u v =
  match find_link t u v with Some l -> l.up | None -> false

let set_link t u v ~up =
  match find_link t u v with
  | Some l ->
    if not (Bool.equal l.up up) then begin
      l.up <- up;
      bump t
    end
  | None -> raise Not_found

let neighbors t u =
  check_node t u;
  List.filter_map (fun (v, l) -> if l.up then Some (v, l.w) else None) (row t u)

(* Written as its own recursion rather than [List.iter] over a closure so
   a walk allocates nothing: this is the inner loop of Dijkstra. *)
let rec iter_live f = function
  | [] -> ()
  | (v, l) :: rest ->
    if l.up then f v l.w;
    iter_live f rest

let iter_neighbors t u f =
  check_node t u;
  iter_live f (row t u)

let link t u v =
  match find_link t u v with Some l -> l | None -> raise Not_found

let is_up l = l.up

let links t u =
  check_node t u;
  row t u

let degree t u =
  check_node t u;
  List.fold_left (fun acc (_, l) -> if l.up then acc + 1 else acc) 0 (row t u)

(* Every enumeration goes through the sorted rows, so every consumer sees
   a deterministic edge order. *)
let fold_all f t init =
  let acc = ref init in
  for u = 0 to t.n - 1 do
    List.iter
      (fun (v, l) -> if u < v then acc := f { u; v; weight = l.w } l.up !acc)
      (row t u)
  done;
  !acc

let compare_endpoints a b =
  match Int.compare a.u b.u with 0 -> Int.compare a.v b.v | c -> c

let edges t =
  fold_all (fun e up acc -> if up then e :: acc else acc) t []
  |> List.sort compare_endpoints

let all_edges t =
  fold_all (fun e up acc -> (e, up) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare_endpoints a b)

let n_edges t = fold_all (fun _ up acc -> if up then acc + 1 else acc) t 0

let copy t =
  let fresh = create t.n in
  List.iter
    (fun (e, up) ->
      add_edge fresh e.u e.v ~weight:e.weight;
      if not up then set_link fresh e.u e.v ~up:false)
    (all_edges t);
  fresh.version <- 0;
  fresh

let equal a b =
  a.n = b.n
  &&
  let ea = all_edges a and eb = all_edges b in
  List.length ea = List.length eb
  && List.for_all2
       (fun (x, upx) (y, upy) ->
         x.u = y.u && x.v = y.v && Float.equal x.weight y.weight && upx = upy)
       ea eb

let pp ppf t =
  Format.fprintf ppf "@[<v>graph %d nodes, %d live edges" t.n (n_edges t);
  List.iter
    (fun (e, up) ->
      (* dgmc-analyze: allow float-format — debug pretty-printer, not schema output *)
      Format.fprintf ppf "@,  %d -- %d  w=%.4g%s" e.u e.v e.weight
        (if up then "" else "  (down)"))
    (all_edges t);
  Format.fprintf ppf "@]"
