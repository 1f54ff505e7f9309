type align = Left | Right

type t = { align : align list; headers : string list; rows : string list list }

let cell_f x =
  (* dgmc-analyze: allow float-format — console table cell, not schema output *)
  let s = Printf.sprintf "%.3f" x in
  (* Trim trailing zeros but keep at least one decimal digit. *)
  let rec trim i = if i > 0 && s.[i] = '0' && s.[i - 1] <> '.' then trim (i - 1) else i in
  String.sub s 0 (trim (String.length s - 1) + 1)

let cell_ci ~mean ~ci = Printf.sprintf "%s ± %s" (cell_f mean) (cell_f ci)

let pad align width s =
  let fill = width - String.length s in
  if fill <= 0 then s
  else
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s

let render ?align ~headers rows =
  let n_cols =
    List.fold_left (fun acc row -> max acc (List.length row)) (List.length headers) rows
  in
  let get list i = match List.nth_opt list i with Some x -> x | None -> "" in
  let align_of i =
    match align with
    | Some a -> ( match List.nth_opt a i with Some x -> x | None -> Right)
    | None -> Right
  in
  let widths =
    Array.init n_cols (fun i ->
        List.fold_left
          (fun acc row -> max acc (String.length (get row i)))
          (String.length (get headers i))
          rows)
  in
  let render_row row =
    String.concat "  "
      (List.init n_cols (fun i -> pad (align_of i) widths.(i) (get row i)))
  in
  let rule =
    String.concat "  "
      (List.init n_cols (fun i -> String.make widths.(i) '-'))
  in
  String.concat "\n" (render_row headers :: rule :: List.map render_row rows)

let print ?align ~headers rows =
  print_string (render ?align ~headers rows);
  print_newline ()

let print_table t = print ~align:t.align ~headers:t.headers t.rows
