(* The ledger's own spans: wall-clock intervals around its calls into the
   library, kept in memory and written as JSONL when the run ends.

   Untraced recorders only time the call.  Traced recorders also keep a
   span (name, start, end, parent, cell id, minor words) and attach to
   every leaf span the [Metrics.Phase] rows the library's kernels
   recorded inside it, as deltas of the recorder's phase probe. *)

let now () =
  (* dgmc-analyze: allow nondet-source — the benchmark's wall clock *)
  Unix.gettimeofday ()

type t = {
  id : int;
  name : string;
  cell : int;  (** [-1] outside any cell. *)
  parent : int;  (** [-1] for a root. *)
  start : float;  (** Seconds since the recorder was created. *)
  stop : float;
  minor_words : float;
  phases : Metrics.Phase.row list;  (** Leaf spans only. *)
}

type frame = { fid : int; mutable children : int }

type recorder = {
  traced : bool;
  phase : Metrics.Phase.t;
  origin : float;
  mutable spans : t list;  (** Newest first. *)
  mutable next_id : int;
  mutable stack : frame list;
}

let recorder ~traced =
  {
    traced;
    phase = (if traced then Metrics.Phase.create () else Metrics.Phase.disabled);
    origin = now ();
    spans = [];
    next_id = 0;
    stack = [];
  }

let traced r = r.traced

let phase r = r.phase

let spans r = List.rev r.spans

let delta_rows before after =
  List.filter_map
    (fun (a : Metrics.Phase.row) ->
      let b =
        List.find_opt
          (fun (b : Metrics.Phase.row) -> String.equal b.r_name a.r_name)
          before
      in
      match b with
      | None -> if a.r_calls > 0 then Some a else None
      | Some b when a.r_calls = b.r_calls -> None
      | Some b ->
        Some
          {
            Metrics.Phase.r_name = a.r_name;
            r_calls = a.r_calls - b.r_calls;
            r_wall_s = a.r_wall_s -. b.r_wall_s;
            r_self_wall_s = a.r_self_wall_s -. b.r_self_wall_s;
            r_minor_words = a.r_minor_words -. b.r_minor_words;
            r_self_minor_words = a.r_self_minor_words -. b.r_self_minor_words;
          })
    after

(* [time r ~cell name f] runs [f] and returns its result with the
   seconds it took.  Phase snapshots are taken outside the timed
   interval, so their cost lands in the parent span's self time. *)
let time r ~cell name f =
  if not r.traced then begin
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  end
  else begin
    let id = r.next_id in
    r.next_id <- id + 1;
    let parent =
      match r.stack with
      | p :: _ ->
        p.children <- p.children + 1;
        p.fid
      | [] -> -1
    in
    let frame = { fid = id; children = 0 } in
    r.stack <- frame :: r.stack;
    let before = Metrics.Phase.snapshot r.phase in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let w1 = Gc.minor_words () in
      let phases =
        if frame.children = 0 then
          delta_rows before (Metrics.Phase.snapshot r.phase)
        else []
      in
      r.stack <- List.tl r.stack;
      r.spans <-
        {
          id;
          name;
          cell;
          parent;
          start = t0 -. r.origin;
          stop = t1 -. r.origin;
          minor_words = w1 -. w0;
          phases;
        }
        :: r.spans;
      t1 -. t0
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let duration s = s.stop -. s.start

(* ------------------------------------------------------------------ *)
(* JSONL *)

let num = Sim.Json.number

let row_json (p : Metrics.Phase.row) =
  Printf.sprintf
    {|{"name":"%s","calls":%d,"wall_s":%s,"self_s":%s,"minor_words":%s,"self_minor_words":%s}|}
    (Sim.Json.escape p.r_name) p.r_calls (num p.r_wall_s)
    (num p.r_self_wall_s) (num p.r_minor_words) (num p.r_self_minor_words)

let span_json s =
  Printf.sprintf
    {|{"id":%d,"name":"%s","cell":%d,"parent":%d,"start":%s,"end":%s,"minor_words":%s,"phases":[%s]}|}
    s.id (Sim.Json.escape s.name) s.cell s.parent (num s.start) (num s.stop)
    (num s.minor_words)
    (String.concat "," (List.map row_json s.phases))

let write r ~path ~header =
  Out_channel.with_open_text path (fun oc ->
      output_string oc header;
      output_char oc '\n';
      List.iter
        (fun s ->
          output_string oc (span_json s);
          output_char oc '\n')
        (spans r))

(* Re-read a span file and check that it is well formed: every line
   parses, ids are unique, every parent exists, every child lies inside
   its parent, and every self time (children and attached phases
   subtracted) is non-negative.  Returns the number of spans. *)
let check_file path =
  let tolerance = 1e-6 in
  let ( let* ) = Result.bind in
  let field name conv j =
    match Option.bind (Sim.Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or bad field %S" name)
  in
  let parse_line i line =
    match Sim.Json.parse line with
    | Error e -> Error (Printf.sprintf "line %d: %s" i e)
    | Ok j ->
      let at r = Result.map_error (Printf.sprintf "line %d: %s" i) r in
      let* id = at (field "id" Sim.Json.to_int j) in
      let* parent = at (field "parent" Sim.Json.to_int j) in
      let* start = at (field "start" Sim.Json.to_float j) in
      let* stop = at (field "end" Sim.Json.to_float j) in
      let* phases = at (field "phases" Sim.Json.to_list j) in
      let* phase_self =
        List.fold_left
          (fun acc p ->
            let* acc = acc in
            let* s = at (field "self_s" Sim.Json.to_float p) in
            Ok (acc +. s))
          (Ok 0.0) phases
      in
      Ok (id, parent, start, stop, phase_self)
  in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.length l > 0)
  in
  match lines with
  | [] -> Error "empty span file"
  | header :: body ->
    let* _ = Result.map_error (fun e -> "header: " ^ e) (Sim.Json.parse header) in
    let* parsed =
      List.fold_left
        (fun acc (i, l) ->
          let* acc = acc in
          let* s = parse_line i l in
          Ok (s :: acc))
        (Ok [])
        (List.mapi (fun i l -> (i + 2, l)) body)
    in
    let by_id = Hashtbl.create 1024 in
    let* () =
      List.fold_left
        (fun acc ((id, _, _, _, _) as s) ->
          let* () = acc in
          if Hashtbl.mem by_id id then Error (Printf.sprintf "duplicate span id %d" id)
          else Ok (Hashtbl.replace by_id id s))
        (Ok ()) parsed
    in
    let children = Hashtbl.create 1024 in
    let* () =
      List.fold_left
        (fun acc (id, parent, start, stop, _) ->
          let* () = acc in
          if stop < start then Error (Printf.sprintf "span %d ends before it starts" id)
          else if parent < 0 then Ok ()
          else
            match Hashtbl.find_opt by_id parent with
            | None -> Error (Printf.sprintf "span %d: parent %d does not exist" id parent)
            | Some (_, _, pstart, pstop, _) ->
              if start < pstart -. tolerance || stop > pstop +. tolerance then
                Error (Printf.sprintf "span %d lies outside its parent %d" id parent)
              else begin
                Hashtbl.replace children parent
                  (stop -. start
                  +. Option.value ~default:0.0 (Hashtbl.find_opt children parent));
                Ok ()
              end)
        (Ok ()) parsed
    in
    let* () =
      List.fold_left
        (fun acc (id, _, start, stop, phase_self) ->
          let* () = acc in
          let inner =
            phase_self +. Option.value ~default:0.0 (Hashtbl.find_opt children id)
          in
          if stop -. start -. inner < -.tolerance then
            Error (Printf.sprintf "span %d has negative self time" id)
          else Ok ())
        (Ok ()) parsed
    in
    Ok (List.length parsed)
