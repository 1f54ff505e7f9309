type kind = Symmetric | Receiver_only | Asymmetric

type t = { id : int; kind : kind }

let make kind id = { id; kind }

let kind_rank = function Symmetric -> 0 | Receiver_only -> 1 | Asymmetric -> 2

let compare a b =
  let c = Int.compare a.id b.id in
  if c <> 0 then c else Int.compare (kind_rank a.kind) (kind_rank b.kind)

let equal a b = compare a b = 0

let hash t = (t.id * 4) + kind_rank t.kind

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

let sorted tbl = List.sort compare (Tbl.fold (fun mc _ l -> mc :: l) tbl [])

let kind_to_string = function
  | Symmetric -> "symmetric"
  | Receiver_only -> "receiver-only"
  | Asymmetric -> "asymmetric"

let kind_of_string = function
  | "symmetric" -> Some Symmetric
  | "receiver-only" -> Some Receiver_only
  | "asymmetric" -> Some Asymmetric
  | _ -> None

let to_string t =
  let kind = kind_to_string t.kind in
  let b = Bytes.create (5 + Sim.Render.int_width t.id + String.length kind) in
  let pos = Sim.Render.put_string b 0 "mc#" in
  let pos = Sim.Render.put_int b pos t.id in
  Bytes.set b pos '(';
  let pos = Sim.Render.put_string b (pos + 1) kind in
  Bytes.set b pos ')';
  Bytes.unsafe_to_string b

let pp ppf t = Format.pp_print_string ppf (to_string t)
