module Int_map = Map.Make (Int)

type role = Sender | Receiver | Both

type t = role Int_map.t

let empty = Int_map.empty

let is_empty = Int_map.is_empty

let cardinal = Int_map.cardinal

let join t x role = Int_map.add x role t

let leave t x = Int_map.remove x t

let mem t x = Int_map.mem x t

let role t x = Int_map.find_opt x t

let ids t = List.map fst (Int_map.bindings t)

let senders t =
  Int_map.bindings t
  |> List.filter_map (fun (x, r) ->
         match r with Sender | Both -> Some x | Receiver -> None)

let receivers t =
  Int_map.bindings t
  |> List.filter_map (fun (x, r) ->
         match r with Receiver | Both -> Some x | Sender -> None)

let of_list list =
  List.fold_left (fun t (x, r) -> join t x r) empty list

let equal a b = Int_map.equal (fun (x : role) y -> x = y) a b

let role_rank = function Sender -> 0 | Receiver -> 1 | Both -> 2

let compare_role x y = Int.compare (role_rank x) (role_rank y)

(* [Int_map.compare] allocates an enumeration of both maps per call.
   Memo lookups mostly compare equal sets, so that case is settled first
   by lookups, which allocate only the closure. *)
let same_bindings a b =
  Int_map.cardinal a = Int_map.cardinal b
  && Int_map.for_all
       (fun x r ->
         match Int_map.find x b with
         | r' -> compare_role r r' = 0
         | exception Not_found -> false)
       a

let compare a b = if same_bindings a b then 0 else Int_map.compare compare_role a b

let role_to_string = function
  | Sender -> "sender"
  | Receiver -> "receiver"
  | Both -> "both"

let role_of_string = function
  | "sender" -> Some Sender
  | "receiver" -> Some Receiver
  | "both" -> Some Both
  | _ -> None

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (x, r) -> Format.fprintf ppf "%d:%s" x (role_to_string r)))
    (Int_map.bindings t)
