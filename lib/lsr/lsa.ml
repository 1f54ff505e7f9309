type 'a t = { origin : int; seq : int; payload : 'a }

let make ~origin ~seq payload = { origin; seq; payload }

let id t = (t.origin, t.seq)

module Seq = struct
  type counter = { mutable next_value : int }

  let create () = { next_value = 0 }

  let next c =
    let v = c.next_value in
    c.next_value <- v + 1;
    v
end
