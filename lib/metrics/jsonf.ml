(* The one JSON float and string renderer: every hand-written JSON
   writer in the repo (dgmc-bench/1, dgmc-trace/1, the report and the
   analyzer) goes through it, [Sim.Json] included. *)

let num f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* dgmc-analyze: allow float-format — %.0f on an exactly-integral float
       below 2^53 round-trips; non-integral values take the %.17g branch *)
    Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
