type t = {
  mutable free : int array;  (* Ids given back: a stack of [n_free]. *)
  mutable n_free : int;
  mutable used : int;
}

let create () = { free = [||]; n_free = 0; used = 0 }

let take t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.free.(t.n_free)
  end
  else begin
    t.used <- t.used + 1;
    t.used - 1
  end

let give_back t id =
  if t.n_free = Array.length t.free then begin
    let free = Array.make (max 16 (2 * t.n_free)) 0 in
    Array.blit t.free 0 free 0 t.n_free;
    t.free <- free
  end;
  t.free.(t.n_free) <- id;
  t.n_free <- t.n_free + 1

let used t = t.used

let live t = t.used - t.n_free
