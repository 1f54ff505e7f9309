(* Sparse storage of a dense vector.  The first [len] slots of [pairs]
   interleave the positive components in ascending switch order,
   [| s0; c0; s1; c1; ... |] with s0 < s1 < ... and every c > 0, so the
   representation is canonical: two stamps with the same dense view
   have equal used slots.  Slots past [len] are room for an owned
   stamp's in-place updates and mean nothing.  [total] is the sum of the
   counts: a stamp covers another only if its total is at least as
   large, and equals it only if the totals are equal, so most rejections
   read two ints.

   A frozen stamp is never written again.  Every value built here is
   frozen, except the owned copy an in-place update makes of a frozen
   or full stamp; [freeze] is the one way back (see the mli for the
   ownership rule).  [used] holds both: the used slot count [len], which
   is even, plus 1 when the stamp is frozen, so the record keeps four
   fields.

   The walks below are top-level recursions over the arrays rather than
   local closures, so reads allocate nothing.  Their arrays are typed
   [int array], so each comparison is one machine instruction rather
   than a call to polymorphic compare, and they read without bounds
   checks: every index they read is below a [len], which is at most the
   array's length. *)
type t = {
  n : int;
  pairs : int array;
  mutable used : int;
  mutable total : int;
}

let len t = t.used land lnot 1
let frozen t = t.used land 1 = 1

let zero n =
  if n <= 0 then invalid_arg "Timestamp.zero: size must be positive";
  { n; pairs = [||]; used = 1; total = 0 }

let size t = t.n

let freeze t =
  if not (frozen t) then t.used <- t.used lor 1;
  t

let check_range msg t x = if x < 0 || x >= t.n then invalid_arg msg

let check_sizes a b = if a.n <> b.n then invalid_arg "Timestamp: size mismatch"

(* Pair index [j] holding switch [x] in [pairs.(2*lo) .. pairs.(2*hi-2)],
   or [lnot j] where [j] is the pair index [x] would be inserted at. *)
let rec search (pairs : int array) x lo hi =
  if lo >= hi then lnot lo
  else
    let mid = (lo + hi) / 2 in
    let s = Array.unsafe_get pairs (2 * mid) in
    if s = x then mid
    else if s < x then search pairs x (mid + 1) hi
    else search pairs x lo mid

let find t x = search t.pairs x 0 (len t / 2)

let get t x =
  check_range "Timestamp.get: out of range" t x;
  let j = find t x in
  if j >= 0 then t.pairs.((2 * j) + 1) else 0

(* ------------------------------------------------------------------ *)
(* Merging *)

(* Every component of [pb] from pair slot [j] below [lb] is at most the
   matching one of [pa] from slot [i] below [la]; a positive component
   [pa] lacks fails. *)
let rec covers_from (pa : int array) la (pb : int array) lb i j =
  j >= lb
  || i < la
     &&
     let sa = Array.unsafe_get pa i and sb = Array.unsafe_get pb j in
     if sa < sb then covers_from pa la pb lb (i + 2) j
     else
       sa = sb
       && Array.unsafe_get pa (i + 1) >= Array.unsafe_get pb (j + 1)
       && covers_from pa la pb lb (i + 2) (j + 2)

(* [a] covers [b]: at once when they are one stamp or [a]'s total is
   smaller, else by one walk. *)
let covers a b =
  a == b
  || (a.total >= b.total && covers_from a.pairs (len a) b.pairs (len b) 0 0)

(* [a] covers [b] and differs from it.  Equal totals and [a] covering
   [b] make them equal, so a larger total and one walk decide it. *)
let exceeds a b =
  a.total > b.total && covers_from a.pairs (len a) b.pairs (len b) 0 0

(* Number of distinct switches among the pairs of [pa] and [pb]. *)
let rec distinct (pa : int array) la (pb : int array) lb i j k =
  if i >= la then k + ((lb - j) / 2)
  else if j >= lb then k + ((la - i) / 2)
  else
    let sa = Array.unsafe_get pa i and sb = Array.unsafe_get pb j in
    if sa < sb then distinct pa la pb lb (i + 2) j (k + 1)
    else if sb < sa then distinct pa la pb lb i (j + 2) (k + 1)
    else distinct pa la pb lb (i + 2) (j + 2) (k + 1)

(* Writes the componentwise maximum of [pa] and [pb] into [out], from
   the last pair down, and returns [total] plus the sum of the counts
   written: [i], [j] and [k] are the last pair slots still to read or
   write, negative once done.  Backwards, so [out] may be [pa] itself:
   [k] never falls below [i], and it equals [i] only when every
   remaining switch of [pb] is also in [pa], so a slot of [pa] is always
   read before it is overwritten. *)
let rec fill_max out (pa : int array) (pb : int array) i j k total =
  if k < 0 then total
  else if j < 0 || (i >= 0 && Array.unsafe_get pa i > Array.unsafe_get pb j)
  then begin
    let c = Array.unsafe_get pa (i + 1) in
    out.(k + 1) <- c;
    out.(k) <- Array.unsafe_get pa i;
    fill_max out pa pb (i - 2) j (k - 2) (total + c)
  end
  else if i < 0 || Array.unsafe_get pb j > Array.unsafe_get pa i then begin
    let c = Array.unsafe_get pb (j + 1) in
    out.(k) <- Array.unsafe_get pb j;
    out.(k + 1) <- c;
    fill_max out pa pb i (j - 2) (k - 2) (total + c)
  end
  else begin
    let ca = Array.unsafe_get pa (i + 1) and cb = Array.unsafe_get pb (j + 1) in
    let c = if ca >= cb then ca else cb in
    out.(k + 1) <- c;
    out.(k) <- Array.unsafe_get pa i;
    fill_max out pa pb (i - 2) (j - 2) (k - 2) (total + c)
  end

(* The number of pairs in the componentwise maximum of [a] and [b]. *)
let merged_pairs a b = distinct a.pairs (len a) b.pairs (len b) 0 0 0

(* An argument that already dominates is returned as is, so the common
   no-news merge allocates nothing.  Once [a] fails to cover [b] the two
   differ, so [b] covers [a] only by [exceeds]. *)
let merge a b =
  check_sizes a b;
  if covers a b then a
  else if exceeds b a then b
  else begin
    let d = merged_pairs a b in
    let pairs = Array.make (2 * d) 0 in
    let total =
      fill_max pairs a.pairs b.pairs (len a - 2) (len b - 2) ((2 * d) - 2) 0
    in
    { n = a.n; pairs; used = (2 * d) lor 1; total }
  end

(* ------------------------------------------------------------------ *)
(* In-place operations on an owned stamp *)

(* An owned copy of [t] with room for [pairs] components, and some more
   so that the next few inserts write in place. *)
let owned_copy t pairs =
  let room = 2 * (pairs + 1 + (pairs / 2)) in
  let buf = Array.make room 0 in
  let len = len t in
  Array.blit t.pairs 0 buf 0 len;
  { n = t.n; pairs = buf; used = len; total = t.total }

(* [t] itself when it is owned and has room for [extra] more
   components, else an owned copy that does. *)
let writable t extra =
  if (not (frozen t)) && len t + (2 * extra) <= Array.length t.pairs then t
  else owned_copy t ((len t / 2) + extra)

(* Sets the count at pair index [j] to [v]. *)
let set_owned t j v =
  let t = writable t 0 in
  let c = (2 * j) + 1 in
  t.total <- t.total - t.pairs.(c) + v;
  t.pairs.(c) <- v;
  t

(* Opens pair index [j] for switch [x]'s count [v]. *)
let add_owned t j x v =
  let t = writable t 1 in
  Array.blit t.pairs (2 * j) t.pairs ((2 * j) + 2) (len t - (2 * j));
  t.pairs.(2 * j) <- x;
  t.pairs.((2 * j) + 1) <- v;
  t.used <- t.used + 2;
  t.total <- t.total + v;
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

(* The componentwise maximum of [a] and [b], neither covering the other,
   written into [a] or an owned copy of it. *)
let fill_owned a b =
  let d = merged_pairs a b in
  let out = writable a (d - (len a / 2)) in
  out.total <-
    fill_max out.pairs a.pairs b.pairs (len a - 2) (len b - 2) ((2 * d) - 2) 0;
  out.used <- 2 * d;
  out

let merge_owned a b =
  check_sizes a b;
  if covers a b then a else if exceeds b a then freeze b else fill_owned a b

(* [b] covers [a] and ties its total only when the two are equal. *)
let merge_owned_known a b ~covered =
  check_sizes a b;
  if covered then if a.total = b.total then a else freeze b
  else if covers a b then a
  else fill_owned a b

(* ------------------------------------------------------------------ *)
(* Reads *)

let geq a b =
  check_sizes a b;
  covers a b

let rec same (pa : int array) (pb : int array) i len =
  i >= len
  || Array.unsafe_get pa i = Array.unsafe_get pb i && same pa pb (i + 1) len

let equal a b =
  check_sizes a b;
  a == b
  || a.total = b.total
     &&
     let la = len a in
     la = len b && same a.pairs b.pairs 0 la

let gt a b =
  check_sizes a b;
  exceeds a b

let iter_nonzero f t =
  for j = 0 to (len t / 2) - 1 do
    f t.pairs.(2 * j) t.pairs.((2 * j) + 1)
  done

let to_array t =
  let a = Array.make t.n 0 in
  iter_nonzero (fun x c -> a.(x) <- c) t;
  a

(* A frozen stamp is never written again, so a trace may share its
   pairs when they are exactly its used slots. *)
let to_sparse t =
  {
    Sim.Trace.size = t.n;
    nonzero =
      (if frozen t && len t = Array.length t.pairs then t.pairs
       else Array.sub t.pairs 0 (len t));
  }

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_seq (to_array t))
