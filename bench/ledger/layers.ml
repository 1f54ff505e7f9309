(* Per-layer attribution of a traced run.

   The wall time of every round span is split into rows.  A leaf span
   (graph generation, create, schedule, run, check) contributes its
   duration minus the [Metrics.Phase] self time recorded inside it,
   under its own name — so [dgmc.run] is the run's residual: engine,
   per-hop flooding and switch work outside the instrumented kernels.
   Each phase row contributes its self time under the phase name.
   "cell" and "round" spans contribute their own self time as [ledger]
   overhead.  The rows therefore sum to the rounds' wall time. *)

module SM = Map.Make (String)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type row = { calls : float; self_s : float; minor : float }

let zero = { calls = 0.0; self_s = 0.0; minor = 0.0 }

let bump m name r =
  SM.update name
    (fun prev ->
      let p = Option.value ~default:zero prev in
      Some
        {
          calls = p.calls +. r.calls;
          self_s = p.self_s +. r.self_s;
          minor = p.minor +. r.minor;
        })
    m

let add m k v = SM.update k (fun p -> Some (Option.value ~default:0.0 p +. v)) m

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* The brute-force baseline runs D-GMC's own compute entry point; its
   share is the baseline's, not D-GMC's. *)
let phase_row ~span name =
  if String.equal name "dgmc.compute" && starts_with ~prefix:"baselines.brute_force" span
  then "baselines.brute_force.compute"
  else name

let layer_of name =
  match String.index_opt name '.' with
  | None -> "ledger"
  | Some i -> (
    match String.sub name 0 i with
    | "flood" -> "lsr"
    | "cbt" -> "baselines"
    | l -> l)

let is_run name =
  String.equal name "dgmc.run"
  || String.equal name "baselines.brute_force.run"
  || String.equal name "baselines.mospf.run"

let is_setup name =
  String.equal name "net.generate"
  || String.equal name "dgmc.establish"
  || String.equal name "dgmc.create"
  || String.equal name "baselines.brute_force.create"
  || String.equal name "baselines.mospf.create"

type cell_cost = {
  c_setup : float;
  c_dijkstra : float;
  c_residual : float;  (** Run span minus the kernels recorded inside it. *)
}

(* Sums over every round of a traced run. *)
type t = {
  rounds : int;
  wall : float;
  rows : row SM.t;
  inclusive : float SM.t;  (** Span durations per span name. *)
  run_wall : float;  (** Run spans (all protocols). *)
  cell_wall : float SM.t;  (** Per protocol name: cell durations. *)
  cell_dijkstra : float SM.t;  (** Per protocol name: net.dijkstra self. *)
  costs : (int * cell_cost) list;  (** Per cell id. *)
}

let phase_self (s : Span.t) =
  List.fold_left
    (fun (w, m) (p : Metrics.Phase.row) ->
      (w +. p.r_self_wall_s, m +. p.r_self_minor_words))
    (0.0, 0.0) s.phases

let dijkstra_self (s : Span.t) =
  List.fold_left
    (fun a (p : Metrics.Phase.row) ->
      if String.equal p.r_name "net.dijkstra" then a +. p.r_self_wall_s else a)
    0.0 s.phases

(* [proto_of_cell] names the protocol a cell id ran.  Spans outside a
   round (replays, instrument passes) are left out. *)
let of_spans ~proto_of_cell (spans : Span.t list) =
  let by_id = Hashtbl.create 4096 and kids = Hashtbl.create 4096 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.id s) spans;
  List.iter
    (fun (s : Span.t) ->
      if s.parent >= 0 then
        let d, m = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt kids s.parent) in
        Hashtbl.replace kids s.parent (d +. Span.duration s, m +. s.minor_words))
    spans;
  let rec in_round (s : Span.t) =
    String.equal s.name "round"
    || (s.parent >= 0
       && match Hashtbl.find_opt by_id s.parent with Some p -> in_round p | None -> false)
  in
  let costs = Hashtbl.create 1024 in
  let cost cell f =
    let c =
      Option.value
        ~default:{ c_setup = 0.0; c_dijkstra = 0.0; c_residual = 0.0 }
        (Hashtbl.find_opt costs cell)
    in
    Hashtbl.replace costs cell (f c)
  in
  let init =
    {
      rounds = 0;
      wall = 0.0;
      rows = SM.empty;
      inclusive = SM.empty;
      run_wall = 0.0;
      cell_wall = SM.empty;
      cell_dijkstra = SM.empty;
      costs = [];
    }
  in
  let t =
    List.fold_left
      (fun t (s : Span.t) ->
        if not (in_round s) then t
        else
          let d = Span.duration s in
          let t = { t with inclusive = add t.inclusive s.name d } in
          match Hashtbl.find_opt kids s.id with
          | Some (kd, km) ->
            let t =
              if String.equal s.name "round" then
                { t with rounds = t.rounds + 1; wall = t.wall +. d }
              else if String.equal s.name "cell" then
                { t with cell_wall = add t.cell_wall (proto_of_cell s.cell) d }
              else t
            in
            {
              t with
              rows =
                bump t.rows "ledger"
                  { calls = 1.0; self_s = d -. kd; minor = s.minor_words -. km };
            }
          | None ->
            let pw, pm = phase_self s in
            let rows =
              bump t.rows s.name
                { calls = 1.0; self_s = d -. pw; minor = s.minor_words -. pm }
            in
            let rows =
              List.fold_left
                (fun rows (p : Metrics.Phase.row) ->
                  bump rows (phase_row ~span:s.name p.r_name)
                    {
                      calls = float_of_int p.r_calls;
                      self_s = p.r_self_wall_s;
                      minor = p.r_self_minor_words;
                    })
                rows s.phases
            in
            let dj = dijkstra_self s in
            cost s.cell (fun c ->
                {
                  c_setup = (c.c_setup +. if is_setup s.name then d else 0.0);
                  c_dijkstra = c.c_dijkstra +. dj;
                  c_residual = (c.c_residual +. if is_run s.name then d -. pw else 0.0);
                });
            {
              t with
              rows;
              run_wall = (t.run_wall +. if is_run s.name then d else 0.0);
              cell_dijkstra = add t.cell_dijkstra (proto_of_cell s.cell) dj;
            })
      init spans
  in
  let cells =
    List.filter_map
      (fun (s : Span.t) ->
        if String.equal s.name "cell" && in_round s then
          Option.map (fun c -> (s.cell, c)) (Hashtbl.find_opt costs s.cell)
        else None)
      spans
  in
  { t with costs = cells }

(* Per-round means. *)

let per_round t v = if t.rounds = 0 then 0.0 else v /. float_of_int t.rounds

let row t name = Option.value ~default:zero (SM.find_opt name t.rows)

let self t name = per_round t (row t name).self_s

let calls t name = per_round t (row t name).calls

let minor t name = per_round t (row t name).minor

let inclusive t name =
  per_round t (Option.value ~default:0.0 (SM.find_opt name t.inclusive))

let names t = List.map fst (SM.bindings t.rows)

(* Log-log least-squares slope of y against n. *)
let growth points =
  let pts = List.filter (fun (n, y) -> n > 0.0 && y > 0.0) points in
  let k = float_of_int (List.length pts) in
  if List.length pts < 2 then None
  else begin
    let xs = List.map (fun (n, _) -> log n) pts and ys = List.map (fun (_, y) -> log y) pts in
    let mx = List.fold_left ( +. ) 0.0 xs /. k and my = List.fold_left ( +. ) 0.0 ys /. k in
    let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 xs ys in
    let sxx = List.fold_left (fun a x -> a +. ((x -. mx) *. (x -. mx))) 0.0 xs in
    if sxx <= 0.0 then None else Some (sxy /. sxx)
  end

(* Per-size means of one cell cost; [size_of_cell] names the switch count
   of a cell id. *)
let scale t ~size_of_cell f =
  List.fold_left
    (fun acc (cell, cost) ->
      let n = size_of_cell cell in
      let s, k = Option.value ~default:(0.0, 0) (List.assoc_opt n acc) in
      (n, (s +. f cost, k + 1)) :: List.remove_assoc n acc)
    [] t.costs
  |> List.map (fun (n, (s, k)) -> (float_of_int n, s /. float_of_int k))
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
