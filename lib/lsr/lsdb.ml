type link_event = { u : int; v : int; up : bool; version : int }

module Link_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d

  let hash (a, b) = (a * 1000003) lxor b
end)

type boot = Net.Graph.t

let boot g = Net.Graph.copy g

type t = {
  mutable image : Net.Graph.t;
  mutable shared : bool;
      (* [image] is still the run's boot image, read by every database
         that has not flipped a link yet; the first flip copies it. *)
  versions : int Link_tbl.t;
}

let create boot = { image = boot; shared = true; versions = Link_tbl.create 16 }

let graph t = t.image

let key u v = if u < v then (u, v) else (v, u)

let version t ~u ~v =
  Option.value ~default:0 (Link_tbl.find_opt t.versions (key u v))

let apply t { u; v; up; version = ver } =
  if Net.Graph.has_edge t.image u v && ver > version t ~u ~v then begin
    Link_tbl.replace t.versions (key u v) ver;
    if not (Bool.equal (Net.Graph.link_is_up t.image u v) up) then begin
      if t.shared then begin
        t.image <- Net.Graph.copy t.image;
        t.shared <- false
      end;
      Net.Graph.set_link t.image u v ~up
    end
  end

type clock = int Link_tbl.t

let clock () = Link_tbl.create 16

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
