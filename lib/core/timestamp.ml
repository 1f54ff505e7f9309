(* Sparse storage of a dense vector.  The first [len] slots of [pairs]
   interleave the positive components in ascending switch order,
   [| s0; c0; s1; c1; ... |] with s0 < s1 < ... and every c > 0, so the
   representation is canonical: two stamps with the same dense view
   have equal used slots.  Slots past [len] are room for an owned
   stamp's in-place updates and mean nothing.

   A frozen stamp is never written again.  Every value built here is
   frozen, except the owned copy an in-place update makes of a frozen
   or full stamp; [freeze] is the one way back (see the mli for the
   ownership rule).

   The walks below are top-level recursions over the arrays rather than
   local closures, so reads allocate nothing. *)
type t = {
  n : int;
  pairs : int array;
  mutable len : int;
  mutable frozen : bool;
}

let frozen_of n pairs = { n; pairs; len = Array.length pairs; frozen = true }

let zero n =
  if n <= 0 then invalid_arg "Timestamp.zero: size must be positive";
  frozen_of n [||]

let size t = t.n

let freeze t =
  if not t.frozen then t.frozen <- true;
  t

let check_range msg t x = if x < 0 || x >= t.n then invalid_arg msg

let check_sizes a b = if a.n <> b.n then invalid_arg "Timestamp: size mismatch"

(* Pair index [j] holding switch [x] in [pairs.(2*lo) .. pairs.(2*hi-2)],
   or [lnot j] where [j] is the pair index [x] would be inserted at. *)
let rec search pairs x lo hi =
  if lo >= hi then lnot lo
  else
    let mid = (lo + hi) / 2 in
    let s = pairs.(2 * mid) in
    if s = x then mid
    else if s < x then search pairs x (mid + 1) hi
    else search pairs x lo mid

let find t x = search t.pairs x 0 (t.len / 2)

let get t x =
  check_range "Timestamp.get: out of range" t x;
  let j = find t x in
  if j >= 0 then t.pairs.((2 * j) + 1) else 0

(* ------------------------------------------------------------------ *)
(* Merging *)

(* Every component of [b] from pair slot [j] on is at most the matching
   one of [a] from slot [i] on; a positive component [a] lacks fails. *)
let rec covers a b i j =
  j >= b.len
  || i < a.len
     &&
     let sa = a.pairs.(i) and sb = b.pairs.(j) in
     if sa < sb then covers a b (i + 2) j
     else sa = sb && a.pairs.(i + 1) >= b.pairs.(j + 1) && covers a b (i + 2) (j + 2)

(* Number of distinct switches among the pairs of [a] and [b]. *)
let rec distinct a b i j k =
  if i >= a.len then k + ((b.len - j) / 2)
  else if j >= b.len then k + ((a.len - i) / 2)
  else
    let sa = a.pairs.(i) and sb = b.pairs.(j) in
    if sa < sb then distinct a b (i + 2) j (k + 1)
    else if sb < sa then distinct a b i (j + 2) (k + 1)
    else distinct a b (i + 2) (j + 2) (k + 1)

(* Writes the componentwise maximum of [a] and [b] into [out], from the
   last pair down: [i], [j] and [k] are the last pair slots still to
   read or write, negative once done.  Backwards, so [out] may be
   [a.pairs] itself: [k] never falls below [i], and it equals [i] only
   when every remaining switch of [b] is also in [a], so a slot of [a]
   is always read before it is overwritten. *)
let rec fill_max out pa pb i j k =
  if k >= 0 then
    if j < 0 || (i >= 0 && pa.(i) > pb.(j)) then begin
      out.(k + 1) <- pa.(i + 1);
      out.(k) <- pa.(i);
      fill_max out pa pb (i - 2) j (k - 2)
    end
    else if i < 0 || pb.(j) > pa.(i) then begin
      out.(k) <- pb.(j);
      out.(k + 1) <- pb.(j + 1);
      fill_max out pa pb i (j - 2) (k - 2)
    end
    else begin
      out.(k + 1) <- max pa.(i + 1) pb.(j + 1);
      out.(k) <- pa.(i);
      fill_max out pa pb (i - 2) (j - 2) (k - 2)
    end

(* An argument that already dominates is returned as is, so the common
   no-news merge allocates nothing. *)
let merge a b =
  check_sizes a b;
  if covers a b 0 0 then a
  else if covers b a 0 0 then b
  else begin
    let d = distinct a b 0 0 0 in
    let pairs = Array.make (2 * d) 0 in
    fill_max pairs a.pairs b.pairs (a.len - 2) (b.len - 2) ((2 * d) - 2);
    frozen_of a.n pairs
  end

(* ------------------------------------------------------------------ *)
(* In-place operations on an owned stamp *)

(* An owned copy of [t] with room for [pairs] components, and some more
   so that the next few inserts write in place. *)
let owned_copy t pairs =
  let room = 2 * (pairs + 1 + (pairs / 2)) in
  let buf = Array.make room 0 in
  Array.blit t.pairs 0 buf 0 t.len;
  { n = t.n; pairs = buf; len = t.len; frozen = false }

(* [t] itself when it is owned and has room for [extra] more
   components, else an owned copy that does. *)
let writable t extra =
  if (not t.frozen) && t.len + (2 * extra) <= Array.length t.pairs then t
  else owned_copy t ((t.len / 2) + extra)

(* Sets the count at pair index [j] to [v]. *)
let set_owned t j v =
  let t = writable t 0 in
  t.pairs.((2 * j) + 1) <- v;
  t

(* Opens pair index [j] for switch [x]'s count [v]. *)
let add_owned t j x v =
  let t = writable t 1 in
  Array.blit t.pairs (2 * j) t.pairs ((2 * j) + 2) (t.len - (2 * j));
  t.pairs.(2 * j) <- x;
  t.pairs.((2 * j) + 1) <- v;
  t.len <- t.len + 2;
  t

let bump_owned t x =
  check_range "Timestamp.bump_owned: out of range" t x;
  let j = find t x in
  if j >= 0 then set_owned t j (t.pairs.((2 * j) + 1) + 1)
  else add_owned t (lnot j) x 1

let raise_owned t x v =
  check_range "Timestamp.raise_owned: out of range" t x;
  let j = find t x in
  if j >= 0 then if v <= t.pairs.((2 * j) + 1) then t else set_owned t j v
  else if v <= 0 then t
  else add_owned t (lnot j) x v

let merge_owned a b =
  check_sizes a b;
  if covers a b 0 0 then a
  else if covers b a 0 0 then freeze b
  else begin
    let d = distinct a b 0 0 0 in
    let out = writable a (d - (a.len / 2)) in
    fill_max out.pairs a.pairs b.pairs (a.len - 2) (b.len - 2) ((2 * d) - 2);
    out.len <- 2 * d;
    out
  end

(* ------------------------------------------------------------------ *)
(* Reads *)

let geq a b =
  check_sizes a b;
  covers a b 0 0

let rec same pa pb i len = i >= len || (pa.(i) = pb.(i) && same pa pb (i + 1) len)

let equal a b =
  check_sizes a b;
  a.len = b.len && same a.pairs b.pairs 0 a.len

let gt a b = geq a b && not (equal a b)

let iter_nonzero f t =
  for j = 0 to (t.len / 2) - 1 do
    f t.pairs.(2 * j) t.pairs.((2 * j) + 1)
  done

let to_array t =
  let a = Array.make t.n 0 in
  iter_nonzero (fun x c -> a.(x) <- c) t;
  a

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_seq (to_array t))
