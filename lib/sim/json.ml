type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string

(* ------------------------------------------------------------------ *)
(* Printing helpers: the one JSON float and string renderer, shared by
   every hand-written JSON writer in the repo (dgmc-trace/1, the report,
   the analyzer and the ledger). *)

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

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* dgmc-analyze: allow float-format — %.0f on an exactly-integral float
       below 2^53 round-trips; non-integral values take the %.17g branch *)
    Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the input string *)

type cursor = { src : string; mutable pos : int }

let fail cur msg = raise (Malformed (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  while
    cur.pos < String.length cur.src
    &&
    match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some d when Char.equal c d -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.equal (String.sub cur.src cur.pos n) word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let utf8_of_code buf code =
  (* Encode a Unicode scalar value (from \uXXXX) as UTF-8 bytes. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | None -> fail cur "unterminated escape"
      | Some c ->
        advance cur;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if cur.pos + 4 > String.length cur.src then fail cur "short \\u escape";
          let hex = String.sub cur.src cur.pos 4 in
          cur.pos <- cur.pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code -> utf8_of_code buf code
          | None -> fail cur "bad \\u escape")
        | _ -> fail cur "unknown escape"));
      go ()
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let numeric c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek cur with Some c when numeric c -> true | _ -> false do
    advance cur
  done;
  let text = String.sub cur.src start (cur.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail cur (Printf.sprintf "bad number %S" text)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if (match peek cur with Some '}' -> true | _ -> false) then begin
      advance cur;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws cur;
        let key = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        fields := (key, v) :: !fields;
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          members ()
        | Some '}' -> advance cur
        | _ -> fail cur "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if (match peek cur with Some ']' -> true | _ -> false) then begin
      advance cur;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value cur in
        items := v :: !items;
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          elements ()
        | Some ']' -> advance cur
        | _ -> fail cur "expected ',' or ']'"
      in
      elements ();
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some _ -> Num (parse_number cur)

let parse s =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos <> String.length s then Error "trailing garbage after JSON value"
    else Ok v
  | exception Malformed msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
