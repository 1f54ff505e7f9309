(* [--compare A.jsonl B.jsonl]: repeated-run records of two commits.
   Records are paired by workload, mode and seed, so both sides of a
   pair ran the same cells; each end-to-end metric gets a verdict from
   the paired changes against its BENCHMARK.json bound. *)

type record = {
  stamp : Stamp.t;
  workload : string;
  seed : int;
  traced : bool;
  rounds : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let parse_record line =
  let ( let* ) = Option.bind in
  let* j = Result.to_option (Sim.Json.parse line) in
  let get k conv = Option.bind (Sim.Json.member k j) conv in
  let* stamp = get "stamp" Stamp.of_json in
  let* workload = get "workload" Sim.Json.to_string in
  let* seed = get "seed" Sim.Json.to_int in
  let* traced = get "traced" Sim.Json.to_bool in
  let* rounds = get "rounds" Sim.Json.to_int in
  let* correct = get "correct" Sim.Json.to_bool in
  let* attempted = get "attempted" Sim.Json.to_int in
  let* failed = get "failed" Sim.Json.to_int in
  match Sim.Json.member "metrics" j with
  | Some (Sim.Json.Obj fields) ->
    let metrics =
      List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Sim.Json.to_float v)) fields
    in
    Some { stamp; workload; seed; traced; rounds; correct; attempted; failed; metrics }
  | _ -> None

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.length (String.trim l) > 0)
    |> List.fold_left
         (fun acc (i, line) ->
           Result.bind acc (fun acc ->
               match parse_record line with
               | Some r -> Ok (r :: acc)
               | None -> Error (Printf.sprintf "%s:%d: not a dgmc-ledger record" path i)))
         (Ok [])
    |> Result.map List.rev

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] (exclusive
   method) gives them; the middle one is the median. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  match ld with
  | 0 -> (0.0, 0.0, 0.0)
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
    let m = ld + 1 in
    let q i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

type verdict = Regression | Improved | Within | Unresolved | Void

let verdict_name = function
  | Regression -> "regression"
  | Improved -> "improved"
  | Within -> "within bound"
  | Unresolved -> "unresolved"
  | Void -> "void"

(* The i-th record of a seed on side A with the i-th of that seed on B. *)
let pairs a b =
  let rec zip xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []
  in
  List.sort_uniq Int.compare (List.map (fun (r : record) -> r.seed) a)
  |> List.concat_map (fun s ->
         let of_seed = List.filter (fun (r : record) -> r.seed = s) in
         zip (of_seed a) (of_seed b))

(* Absolute floors below which a change is not judged: set-up times of a
   few hundredths of a second are dominated by the host. *)
let floor_of name = if String.equal name "setup_s" then 0.05 else 0.0

(* [changes] are the pairs' relative changes b/a - 1.  Positive [worse]
   means B is worse.  Where the changes spread between their quartiles
   by more than the bound, only a change every pair agrees on counts. *)
let judge (m : Catalog.metric) ~a ~b changes =
  let bound = Option.value ~default:0.0 m.bound in
  let worse c = if String.equal m.better "higher" then -.c else c in
  let q1, md, q3 = quartiles changes in
  if changes = [] then Unresolved
  else if Float.abs (median b -. median a) < floor_of m.name then Within
  else if q3 -. q1 > bound then
    if List.for_all (fun c -> worse c < 0.0) changes then Improved
    else if List.for_all (fun c -> worse c > 0.0) changes then Regression
    else Unresolved
  else if worse md > bound then Regression
  else if worse md < -.bound then Improved
  else Within

type row = {
  workload : string;
  metric : string;
  a : string;
  b : string;
  change : string;
  bound : string;
  verdict : verdict;
}

type report = {
  rows : row list;  (** End-to-end rows, judged. *)
  layer_rows : string list list;  (** Per-layer rows, not judged. *)
  notes : string list;
}

let fmt x =
  (* dgmc-analyze: allow float-format — human-facing comparison table *)
  Printf.sprintf "%.5g" x

let pct x =
  (* dgmc-analyze: allow float-format — human-facing comparison table *)
  Printf.sprintf "%+.1f%%" (100.0 *. x)

let summary xs =
  let q1, md, q3 = quartiles xs in
  Printf.sprintf "%s [%s, %s]" (fmt md) (fmt q1) (fmt q3)

(* A metric's values on both sides of each pair, and their changes. *)
let paired name ps =
  let vs =
    List.filter_map
      (fun (x, y) ->
        match (List.assoc_opt name x.metrics, List.assoc_opt name y.metrics) with
        | Some va, Some vb -> Some (va, vb)
        | _ -> None)
      ps
  in
  let changes =
    List.filter_map
      (fun (va, vb) -> if Float.equal va 0.0 then None else Some ((vb /. va) -. 1.0))
      vs
  in
  (List.map fst vs, List.map snd vs, changes)

(* Failed cell runs of a workload's pairs.  A side B with more failures
   than A, or with an incorrect run, is a regression whatever its
   timings; an incorrect run on side A leaves the comparison unresolved.
   Either way the timings are void: a run that fails cells skips work. *)
let failures ~workload ps =
  let count f = List.fold_left (fun acc p -> acc + f p) 0 ps in
  let fa = count (fun (x, _) -> x.failed) and fb = count (fun (_, y) -> y.failed) in
  let na = count (fun (x, _) -> x.attempted) and nb = count (fun (_, y) -> y.attempted) in
  let incorrect side = List.exists (fun p -> not (side p).correct) ps in
  let verdict =
    if fb > fa || incorrect snd then Regression
    else if incorrect fst then Unresolved
    else Within
  in
  {
    workload;
    metric = "failed cell runs";
    a = Printf.sprintf "%d of %d" fa na;
    b = Printf.sprintf "%d of %d" fb nb;
    change = (if incorrect fst || incorrect snd then "incorrect run" else "");
    bound = "0";
    verdict;
  }

let compare (bench : Catalog.benchmark) a b =
  let notes = ref [] in
  let note fmt_ = Printf.ksprintf (fun s -> notes := s :: !notes) fmt_ in
  let workloads =
    List.sort_uniq String.compare (List.map (fun (r : record) -> r.workload) (a @ b))
  in
  let of_ side w traced =
    List.filter
      (fun (r : record) -> String.equal r.workload w && Bool.equal r.traced traced)
      side
  in
  let per_workload w =
    let untraced = pairs (of_ a w false) (of_ b w false)
    and traced = pairs (of_ a w true) (of_ b w true) in
    let all = untraced @ traced in
    let records =
      List.length (List.filter (fun (r : record) -> String.equal r.workload w) (a @ b))
    in
    if records > 2 * List.length all then
      note "%s: %d records have no record of the same seed on the other side; left out" w
        (records - (2 * List.length all));
    let uneven = List.filter (fun (x, y) -> x.rounds <> y.rounds) all in
    if uneven <> [] then
      note "%s: %d pairs ran different numbers of rounds (a run stopped at its deadline)" w
        (List.length uneven);
    let gate = failures ~workload:w all in
    let rows =
      if untraced = [] then []
      else
        gate
        :: List.map
             (fun (m : Catalog.metric) ->
               let xa, xb, changes = paired m.name untraced in
               {
                 workload = w;
                 metric = m.name;
                 a = summary xa;
                 b = summary xb;
                 change = (if changes = [] then "-" else pct (median changes));
                 bound = pct (Option.value ~default:0.0 m.bound);
                 verdict =
                   (if gate.verdict = Within then judge m ~a:xa ~b:xb changes else Void);
               })
             bench.end_to_end
    in
    let layer_rows =
      List.filter_map
        (fun (m : Catalog.metric) ->
          let xa, xb, changes = paired m.name traced in
          if xa = [] then None
          else
            Some
              [
                w;
                m.name;
                summary xa;
                summary xb;
                (if changes = [] then "-" else pct (median changes));
              ])
        bench.per_layer
    in
    (rows, layer_rows)
  in
  let results = List.map per_workload workloads in
  {
    rows = List.concat_map fst results;
    layer_rows = List.concat_map snd results;
    notes = List.rev !notes;
  }

let run ~(benchmark : Catalog.benchmark) a_path b_path =
  match (read a_path, read b_path) with
  | Error e, _ | _, Error e ->
    prerr_endline ("dgmc_ledger --compare: " ^ e);
    2
  | Ok [], _ | _, Ok [] ->
    prerr_endline "dgmc_ledger --compare: a side has no records";
    2
  | Ok a, Ok b -> (
    let first = (List.hd a).stamp in
    match List.find_opt (fun r -> not (Stamp.same_host first r.stamp)) (a @ b) with
    | Some other ->
      Printf.eprintf
        "dgmc_ledger --compare: refusing to compare runs from different hosts\n\
        \  %s\n\
        \  %s\n"
        (Stamp.describe first) (Stamp.describe other.stamp);
      2
    | None ->
      let r = compare benchmark a b in
      if r.rows = [] && r.layer_rows = [] then begin
        prerr_endline "dgmc_ledger --compare: no record on one side has a pair on the other";
        2
      end
      else begin
        Printf.printf "A: %s (%d records)\n" (Stamp.describe first) (List.length a);
        Printf.printf "B: %s (%d records)\n\n" (Stamp.describe (List.hd b).stamp)
          (List.length b);
        List.iter (fun n -> Printf.printf "note: %s\n" n) r.notes;
        print_endline
          "end-to-end (untraced records paired by seed; median [q1, q3]; change = median \
           paired change):";
        Metrics.Table.print
          ~align:[ Metrics.Table.Left; Metrics.Table.Left ]
          ~headers:[ "workload"; "metric"; "A"; "B"; "change"; "bound"; "verdict" ]
          (List.map
             (fun x -> [ x.workload; x.metric; x.a; x.b; x.change; x.bound; verdict_name x.verdict ])
             r.rows);
        if r.layer_rows <> [] then begin
          print_endline "\nper-layer (traced records paired by seed; no bounds):";
          Metrics.Table.print
            ~align:[ Metrics.Table.Left; Metrics.Table.Left ]
            ~headers:[ "workload"; "metric"; "A"; "B"; "change" ]
            r.layer_rows
        end;
        let regressions = List.length (List.filter (fun x -> x.verdict = Regression) r.rows) in
        Printf.printf "\n%d regression(s)\n" regressions;
        if regressions > 0 then 1 else 0
      end)
