(* BENCHMARK.json at the repository root: the one list of workloads and
   metrics, with units, directions and the end-to-end regression bounds.
   A run reports exactly the metrics it lists. *)

type metric = {
  name : string;
  unit_ : string;
  better : string;  (** "higher" or "lower". *)
  bound : float option;  (** End-to-end metrics only. *)
}

type benchmark = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let read_benchmark path =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error e -> Error e
  in
  let* j = Sim.Json.parse text in
  let list key o =
    match Option.bind (Sim.Json.member key o) Sim.Json.to_list with
    | Some l -> Ok l
    | None -> Error (Printf.sprintf "%s: missing list %S" path key)
  in
  let str key o =
    match Option.bind (Sim.Json.member key o) Sim.Json.to_string with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "%s: entry without string %S" path key)
  in
  let all f l =
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* v = f x in
        Ok (v :: acc))
      (Ok []) l
    |> Result.map List.rev
  in
  let metric ~bounded o =
    let* name = str "name" o in
    let* unit_ = str "unit" o in
    let* better = str "better" o in
    match (bounded, Option.bind (Sim.Json.member "bound" o) Sim.Json.to_float) with
    | false, _ -> Ok { name; unit_; better; bound = None }
    | true, (Some _ as bound) -> Ok { name; unit_; better; bound }
    | true, None -> Error (Printf.sprintf "%s: %s has no bound" path name)
  in
  let metrics key ~bounded =
    let* l = list key j in
    all (metric ~bounded) l
  in
  let* ws = list "workloads" j in
  let* workloads = all (str "name") ws in
  let* end_to_end = metrics "end_to_end" ~bounded:true in
  let* per_layer = metrics "per_layer" ~bounded:false in
  Ok { workloads; end_to_end; per_layer }
