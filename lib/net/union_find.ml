type t = { parent : int array; rank : int array; mutable sets : int }

let create n = { parent = Array.init n (fun i -> i); rank = Array.make n 0; sets = n }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ra, rb = if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb) in
    t.parent.(rb) <- ra;
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    t.sets <- t.sets - 1;
    true
  end

let n_sets t = t.sets
