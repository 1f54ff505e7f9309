type summary = { n : int; mean : float; stddev : float; ci95 : float }

let mean = function
  | [] -> invalid_arg "Stats.mean: empty sample"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev = function
  | [] -> invalid_arg "Stats.stddev: empty sample"
  | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (List.length xs - 1))

(* Two-sided 95% critical values of the Student t distribution. *)
let t_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t_critical df =
  if df < 1 then invalid_arg "Stats.t_critical: df must be >= 1";
  if df <= Array.length t_table then t_table.(df - 1) else 1.96

let summarize xs =
  let n = List.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let m = mean xs in
  let sd = stddev xs in
  let ci95 =
    if n < 2 then 0.0 else t_critical (n - 1) *. sd /. sqrt (float_of_int n)
  in
  { n; mean = m; stddev = sd; ci95 }

let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.of_list (List.sort Float.compare xs) in
  let k = Array.length sorted in
  if k = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (k - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (k - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let nearest_rank sorted q =
  match sorted with
  | [] -> 0.0
  | _ ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    List.nth sorted (min (n - 1) (max 0 (rank - 1)))
