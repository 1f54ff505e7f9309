type role = Sender | Receiver | Both

(* Sorted packed entries, one per member: [id lsl 2 lor code role].  The
   role sits below the id, so ascending entries are ascending ids and a
   list has exactly one representation.  Never mutated after
   construction: [join] and [leave] copy the one short array, and return
   their argument when nothing changes. *)
type t = int array

let code = function Sender -> 0 | Receiver -> 1 | Both -> 2

let decode c = match c land 3 with 0 -> Sender | 1 -> Receiver | _ -> Both

let pack x role = (x lsl 2) lor code role

let id_of c = c asr 2

let empty = [||]

let is_empty t = Array.length t = 0

let cardinal = Array.length

(* Index of member [x] in [t.(lo) .. t.(hi - 1)], or [lnot j] where [j]
   is the index it would be inserted at. *)
let rec search t x lo hi =
  if lo >= hi then lnot lo
  else
    let mid = (lo + hi) / 2 in
    let y = id_of t.(mid) in
    if y = x then mid else if y < x then search t x (mid + 1) hi else search t x lo mid

let find t x = search t x 0 (Array.length t)

let join t x role =
  let c = pack x role and j = find t x in
  if j >= 0 then
    if t.(j) = c then t
    else begin
      let t' = Array.copy t in
      t'.(j) <- c;
      t'
    end
  else begin
    let j = lnot j and len = Array.length t in
    let t' = Array.make (len + 1) c in
    Array.blit t 0 t' 0 j;
    Array.blit t j t' (j + 1) (len - j);
    t'
  end

let leave t x =
  let j = find t x in
  if j < 0 then t
  else begin
    let len = Array.length t in
    let t' = Array.make (len - 1) 0 in
    Array.blit t 0 t' 0 j;
    Array.blit t (j + 1) t' j (len - j - 1);
    t'
  end

let mem t x = find t x >= 0

let role t x =
  let j = find t x in
  if j >= 0 then Some (decode t.(j)) else None

let ids t = Array.fold_right (fun c acc -> id_of c :: acc) t []

let with_role keep t =
  Array.fold_right
    (fun c acc -> if keep (decode c) then id_of c :: acc else acc)
    t []

let senders = with_role (function Sender | Both -> true | Receiver -> false)

let receivers = with_role (function Receiver | Both -> true | Sender -> false)

let of_list list =
  List.fold_left (fun t (x, r) -> join t x r) empty list

(* Entries [i ..] of two lists of the same length. *)
let rec compare_from a b i =
  if i >= Array.length a then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b =
  if a == b then 0
  else
    let c = Int.compare (Array.length a) (Array.length b) in
    if c <> 0 then c else compare_from a b 0

let equal a b = compare a b = 0

let role_to_string = function
  | Sender -> "sender"
  | Receiver -> "receiver"
  | Both -> "both"

let role_of_string = function
  | "sender" -> Some Sender
  | "receiver" -> Some Receiver
  | "both" -> Some Both
  | _ -> None

(* Entries [i ..]'s rendering, each ["id:role"], with the ", "
   separators before all but the first. *)
let rec width t i acc =
  if i >= Array.length t then acc
  else
    let c = t.(i) in
    width t (i + 1)
      (acc + Sim.Render.int_width (id_of c) + 1
      + String.length (role_to_string (decode c))
      + if i > 0 then 2 else 0)

let rec put_entries b t i pos =
  if i < Array.length t then begin
    let pos = if i > 0 then Sim.Render.put_string b pos ", " else pos in
    let c = t.(i) in
    let pos = Sim.Render.put_int b pos (id_of c) in
    Bytes.set b pos ':';
    let pos = Sim.Render.put_string b (pos + 1) (role_to_string (decode c)) in
    put_entries b t (i + 1) pos
  end

let to_string t =
  let b = Bytes.create (width t 0 2) in
  Bytes.set b 0 '{';
  put_entries b t 0 1;
  Bytes.set b (Bytes.length b - 1) '}';
  Bytes.unsafe_to_string b

let pp ppf t = Format.pp_print_string ppf (to_string t)
