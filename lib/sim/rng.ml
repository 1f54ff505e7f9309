(* The SplitMix64 state lives in 8 bytes rather than a mutable [int64]
   field: a draw reads and writes it with [Bytes.get_int64_ne] /
   [set_int64_ne], which compile to unboxed loads and stores, so no
   draw allocates a boxed [int64]. *)
type t = Bytes.t

(* SplitMix64 constants. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

(* [@inline] on the draws below lets a caller compiled with this
   module's cross-module information (any non-dev dune profile) keep
   their [int64] and [float] results unboxed. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let derive ~master ~index =
  if index < 0 then invalid_arg "Rng.derive: negative index";
  (* A pure function of (master, index): jump the master stream to slot
     [index + 1] and mix once, so shard streams are independent of each
     other and of the order in which shards are executed. *)
  let t =
    of_state
      (Int64.add (Int64.of_int master)
         (Int64.mul (Int64.of_int (index + 1)) golden_gamma))
  in
  of_state (next_int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int as a
     non-negative number. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let[@inline] float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  let unit = Int64.to_float bits /. 9007199254740992.0 in
  unit *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let range t lo hi =
  if lo > hi then invalid_arg "Rng.range: lo > hi";
  lo + int t (hi - lo + 1)

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = float t 1.0 in
  (* u is in [0, 1); 1 - u is in (0, 1] so log is finite. *)
  -.mean *. log (1.0 -. u)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t k xs =
  let a = Array.of_list xs in
  if k >= Array.length a then xs
  else begin
    shuffle t a;
    Array.to_list (Array.sub a 0 k)
  end
