type link_event = { u : int; v : int; up : bool; version : int }

module Link_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d

  let hash (a, b) = (a * 1000003) lxor b
end)

(* Flipped sets: the sorted keys [lo * n + hi] of the links whose state
   differs from the root image. *)
module Flipped = Hashtbl.Make (struct
  type t = int list
  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h k -> (h * 31) + k) 0
end)

type boot = { root : Net.Graph.t; images : Net.Graph.t Flipped.t }

let boot g = { root = Net.Graph.copy g; images = Flipped.create 16 }

type t = {
  store : boot;
  mutable image : Net.Graph.t;  (* [store]'s image of [flipped] *)
  mutable flipped : int list;
  versions : int Link_tbl.t;
}

let create store =
  { store; image = store.root; flipped = []; versions = Link_tbl.create 16 }

let graph t = t.image

let copy t = { t with versions = Link_tbl.copy t.versions }

let key u v = if u < v then (u, v) else (v, u)

let version t ~u ~v =
  Option.value ~default:0 (Link_tbl.find_opt t.versions (key u v))

let rec toggle (k : int) = function
  | x :: rest when x < k -> x :: toggle k rest
  | x :: rest when x = k -> rest
  | l -> k :: l

(* A published image is never mutated: a flip moves the database to the
   store's image of its new flipped set, and a miss publishes a copy of
   the current image with the link flipped. *)
let apply t { u; v; up; version = ver } =
  if Net.Graph.has_edge t.image u v && ver > version t ~u ~v then begin
    let lo, hi = key u v in
    Link_tbl.replace t.versions (lo, hi) ver;
    if not (Bool.equal (Net.Graph.link_is_up t.image u v) up) then begin
      t.flipped <- toggle ((lo * Net.Graph.n_nodes t.image) + hi) t.flipped;
      t.image <-
        (match (t.flipped, Flipped.find_opt t.store.images t.flipped) with
         | [], _ -> t.store.root
         | _, Some g -> g
         | set, None ->
           let g = Net.Graph.copy t.image in
           Net.Graph.set_link g u v ~up;
           Flipped.add t.store.images set g;
           g)
    end
  end

type clock = int Link_tbl.t

let clock () = Link_tbl.create 16

let copy_clock = Link_tbl.copy

let stamp c u v ~up =
  let k = key u v in
  let version = 1 + Option.value ~default:0 (Link_tbl.find_opt c k) in
  Link_tbl.replace c k version;
  { u; v; up; version }

let entries t =
  Link_tbl.fold
    (fun (u, v) ver acc ->
      { u; v; up = Net.Graph.link_is_up t.image u v; version = ver } :: acc)
    t.versions []
  |> List.sort (fun a b ->
         if a.u <> b.u then Int.compare a.u b.u else Int.compare a.v b.v)

let pp_link_event ppf { u; v; up; version } =
  Format.fprintf ppf "link(%d, %d) %s v%d" u v
    (if up then "up" else "down")
    version
