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

let kind_to_string = function
  | Symmetric -> "symmetric"
  | Receiver_only -> "receiver-only"
  | Asymmetric -> "asymmetric"

let kind_of_string = function
  | "symmetric" -> Some Symmetric
  | "receiver-only" -> Some Receiver_only
  | "asymmetric" -> Some Asymmetric
  | _ -> None

let to_string t = "mc#" ^ string_of_int t.id ^ "(" ^ kind_to_string t.kind ^ ")"

let pp ppf t = Format.pp_print_string ppf (to_string t)
