let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape s =
  if needs_quoting s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let line fields = String.concat "," (List.map escape fields) ^ "\n"

let render ~headers rows =
  String.concat "" (line headers :: List.map line rows)

let write oc ~headers rows = output_string oc (render ~headers rows)
