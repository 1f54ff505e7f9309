(* Sparse storage of a dense vector.  [pairs] interleaves the positive
   components in ascending switch order, [| s0; c0; s1; c1; ... |] with
   s0 < s1 < ... and every c > 0, so the representation is canonical:
   two stamps with the same dense view have equal [pairs].  Never
   mutated after construction; every operation returns a new value or
   one of its arguments.

   The walks below are top-level recursions over the arrays rather than
   local closures, so reads allocate nothing. *)
type t = { n : int; pairs : int array }

let zero n =
  if n <= 0 then invalid_arg "Timestamp.zero: size must be positive";
  { n; pairs = [||] }

let size t = t.n

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

let find t x = search t.pairs x 0 (Array.length t.pairs / 2)

let get t x =
  check_range "Timestamp.get: out of range" t x;
  let j = find t x in
  if j >= 0 then t.pairs.((2 * j) + 1) else 0

let replace t j v =
  let pairs = Array.copy t.pairs in
  pairs.((2 * j) + 1) <- v;
  { t with pairs }

let insert t j x v =
  let len = Array.length t.pairs in
  let pairs = Array.make (len + 2) 0 in
  Array.blit t.pairs 0 pairs 0 (2 * j);
  pairs.(2 * j) <- x;
  pairs.((2 * j) + 1) <- v;
  Array.blit t.pairs (2 * j) pairs ((2 * j) + 2) (len - (2 * j));
  { t with pairs }

let bump t x =
  check_range "Timestamp.bump: out of range" t x;
  let j = find t x in
  if j >= 0 then replace t j (t.pairs.((2 * j) + 1) + 1)
  else insert t (lnot j) x 1

let raise_to t x v =
  check_range "Timestamp.raise_to: out of range" t x;
  let j = find t x in
  if j >= 0 then if v <= t.pairs.((2 * j) + 1) then t else replace t j v
  else if v <= 0 then t
  else insert t (lnot j) x v

(* Every component of [pb] from pair slot [j] on is at most the matching
   one of [pa] from slot [i] on; a positive component [pa] lacks fails. *)
let rec covers pa pb i j =
  j >= Array.length pb
  || i < Array.length pa
     &&
     let sa = pa.(i) and sb = pb.(j) in
     if sa < sb then covers pa pb (i + 2) j
     else sa = sb && pa.(i + 1) >= pb.(j + 1) && covers pa pb (i + 2) (j + 2)

(* Number of distinct switches among the pairs of [pa] and [pb]. *)
let rec distinct pa pb i j k =
  let la = Array.length pa and lb = Array.length pb in
  if i >= la then k + ((lb - j) / 2)
  else if j >= lb then k + ((la - i) / 2)
  else
    let sa = pa.(i) and sb = pb.(j) in
    if sa < sb then distinct pa pb (i + 2) j (k + 1)
    else if sb < sa then distinct pa pb i (j + 2) (k + 1)
    else distinct pa pb (i + 2) (j + 2) (k + 1)

(* Writes the componentwise maximum of [pa] and [pb] into [out]. *)
let rec fill_max out pa pb i j k =
  let la = Array.length pa and lb = Array.length pb in
  if i < la && (j >= lb || pa.(i) < pb.(j)) then begin
    out.(k) <- pa.(i);
    out.(k + 1) <- pa.(i + 1);
    fill_max out pa pb (i + 2) j (k + 2)
  end
  else if j < lb && (i >= la || pb.(j) < pa.(i)) then begin
    out.(k) <- pb.(j);
    out.(k + 1) <- pb.(j + 1);
    fill_max out pa pb i (j + 2) (k + 2)
  end
  else if i < la then begin
    out.(k) <- pa.(i);
    out.(k + 1) <- max pa.(i + 1) pb.(j + 1);
    fill_max out pa pb (i + 2) (j + 2) (k + 2)
  end

(* An argument that already dominates is returned as is, so the common
   no-news merge allocates nothing. *)
let merge a b =
  check_sizes a b;
  if covers a.pairs b.pairs 0 0 then a
  else if covers b.pairs a.pairs 0 0 then b
  else begin
    let pairs = Array.make (2 * distinct a.pairs b.pairs 0 0 0) 0 in
    fill_max pairs a.pairs b.pairs 0 0 0;
    { n = a.n; pairs }
  end

let geq a b =
  check_sizes a b;
  covers a.pairs b.pairs 0 0

let rec same pa pb i =
  i >= Array.length pa || (pa.(i) = pb.(i) && same pa pb (i + 1))

let equal a b =
  check_sizes a b;
  Array.length a.pairs = Array.length b.pairs && same a.pairs b.pairs 0

let gt a b = geq a b && not (equal a b)

let iter_nonzero f t =
  for j = 0 to (Array.length t.pairs / 2) - 1 do
    f t.pairs.(2 * j) t.pairs.((2 * j) + 1)
  done

let sum t =
  let s = ref 0 in
  iter_nonzero (fun _ c -> s := !s + c) t;
  !s

let of_array a =
  Array.iter (fun x -> if x < 0 then invalid_arg "Timestamp.of_array: negative") a;
  if Array.length a = 0 then invalid_arg "Timestamp.of_array: empty";
  let pairs = ref [] in
  for x = Array.length a - 1 downto 0 do
    if a.(x) > 0 then pairs := x :: a.(x) :: !pairs
  done;
  { n = Array.length a; pairs = Array.of_list !pairs }

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
