(* Log-scale histogram: geometric buckets with ratio 2^(1/8), so any
   quantile is recovered within ~4.4% relative error from the bucket
   midpoint, while storage stays O(distinct magnitudes). *)

let log_base = Float.log 2.0 /. 8.0

type hist = {
  mutable h_n : int;
  mutable h_sum : float;
  mutable h_lo : float;
  mutable h_hi : float;
  mutable nonpos : int;  (* samples <= 0 sort below every bucket *)
  buckets : (int, int ref) Hashtbl.t;
}

type cell = Counter of int ref | Gauge of float ref | Hist of hist

type key = { name : string; switch : int option }

type t = { on : bool; cells : (key, cell) Hashtbl.t; owner : int }

(* Never mutated: every recording call returns on [on = false] before it
   reaches the cell table or the owner check, so the one shared value is
   safe to record into from any domain. *)
let disabled = { on = false; cells = Hashtbl.create 1; owner = -1 }

let create () =
  { on = true; cells = Hashtbl.create 64; owner = (Domain.self () :> int) }

let is_empty t = Hashtbl.length t.cells = 0

(* The cell table and the cells themselves are unsynchronised, so all
   mutation is pinned to the creating domain; recording from a worker
   domain is a bug (racy counts), not a best-effort degradation. *)
let check_owner t =
  let self = (Domain.self () :> int) in
  if not (Int.equal self t.owner) then
    invalid_arg
      (Printf.sprintf
         "Metrics.Registry: mutation from domain %d, but the registry is \
          owned by domain %d (collect on the owner domain instead)"
         self t.owner)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let cell_of t ?switch name ~make ~check =
  check_owner t;
  let key = { name; switch } in
  match Hashtbl.find_opt t.cells key with
  | Some c ->
    check c;
    c
  | None ->
    let c = make () in
    Hashtbl.replace t.cells key c;
    c

let wrong_kind name want got =
  invalid_arg
    (Printf.sprintf "Metrics.Registry: %s is a %s, not a %s" name
       (kind_name got) want)

let incr t ?switch ?(by = 1) name =
  if t.on then
    match
      cell_of t ?switch name
        ~make:(fun () -> Counter (ref 0))
        ~check:(function Counter _ -> () | c -> wrong_kind name "counter" c)
    with
    | Counter r -> r := !r + by
    | _ -> assert false

let set_gauge t ?switch name v =
  if t.on then
    match
      cell_of t ?switch name
        ~make:(fun () -> Gauge (ref 0.0))
        ~check:(function Gauge _ -> () | c -> wrong_kind name "gauge" c)
    with
    | Gauge r -> r := v
    | _ -> assert false

let bucket_of v = int_of_float (Float.floor (Float.log v /. log_base))

let bucket_mid i = Float.exp ((float_of_int i +. 0.5) *. log_base)

let observe t ?switch name v =
  if t.on then
    match
      cell_of t ?switch name
        ~make:(fun () ->
          Hist
            {
              h_n = 0;
              h_sum = 0.0;
              h_lo = Float.infinity;
              h_hi = Float.neg_infinity;
              nonpos = 0;
              buckets = Hashtbl.create 16;
            })
        ~check:(function Hist _ -> () | c -> wrong_kind name "histogram" c)
    with
    | Hist h ->
      h.h_n <- h.h_n + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_lo then h.h_lo <- v;
      if v > h.h_hi then h.h_hi <- v;
      if v <= 0.0 then h.nonpos <- h.nonpos + 1
      else begin
        let b = bucket_of v in
        match Hashtbl.find_opt h.buckets b with
        | Some r -> r := !r + 1
        | None -> Hashtbl.replace h.buckets b (ref 1)
      end
    | _ -> assert false

let counter_value t ?switch name =
  match Hashtbl.find_opt t.cells { name; switch } with
  | Some (Counter r) -> !r
  | Some c -> wrong_kind name "counter" c
  | None -> 0

let gauge_value t ?switch name =
  match Hashtbl.find_opt t.cells { name; switch } with
  | Some (Gauge r) -> Some !r
  | Some c -> wrong_kind name "gauge" c
  | None -> None

let hist_quantile h q =
  if h.h_n = 0 then Float.nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_n))) in
    let sorted =
      Hashtbl.fold (fun b r acc -> (b, !r) :: acc) h.buckets []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    let estimate =
      if rank <= h.nonpos then h.h_lo
      else begin
        let rec walk cum = function
          | [] -> h.h_hi
          | (b, n) :: rest ->
            let cum = cum + n in
            if cum >= rank then bucket_mid b else walk cum rest
        in
        walk h.nonpos sorted
      end
    in
    (* Exact extrema are tracked, so clamping can only help. *)
    Float.min h.h_hi (Float.max h.h_lo estimate)
  end

type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

let stats_of_hist h =
  {
    h_count = h.h_n;
    h_sum = h.h_sum;
    h_min = (if h.h_n = 0 then 0.0 else h.h_lo);
    h_max = (if h.h_n = 0 then 0.0 else h.h_hi);
    h_p50 = hist_quantile h 0.50;
    h_p90 = hist_quantile h 0.90;
    h_p99 = hist_quantile h 0.99;
  }

let histogram_stats t ?switch name =
  match Hashtbl.find_opt t.cells { name; switch } with
  | Some (Hist h) -> Some (stats_of_hist h)
  | Some c -> wrong_kind name "histogram" c
  | None -> None

let quantile t ?switch name q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Metrics.Registry.quantile: q outside [0, 1]";
  match Hashtbl.find_opt t.cells { name; switch } with
  | Some (Hist h) when h.h_n > 0 -> Some (hist_quantile h q)
  | Some (Hist _) | None -> None
  | Some c -> wrong_kind name "histogram" c

(* ------------------------------------------------------------------ *)
(* Snapshots: deterministic order regardless of insertion history *)

type snapshot = {
  counters : (key * int) list;
  gauges : (key * float) list;
  histograms : (key * histogram) list;
}

let compare_key a b =
  match String.compare a.name b.name with
  | 0 -> (
    match (a.switch, b.switch) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some x, Some y -> Int.compare x y)
  | c -> c

let snapshot t =
  let cells =
    Hashtbl.fold (fun key cell acc -> (key, cell) :: acc) t.cells []
    |> List.sort (fun (a, _) (b, _) -> compare_key a b)
  in
  {
    counters =
      List.filter_map (function k, Counter r -> Some (k, !r) | _ -> None) cells;
    gauges =
      List.filter_map (function k, Gauge r -> Some (k, !r) | _ -> None) cells;
    histograms =
      List.filter_map
        (function k, Hist h -> Some (k, stats_of_hist h) | _ -> None)
        cells;
  }

(* ------------------------------------------------------------------ *)
(* Merging *)

(* Fold a quiescent source registry into [into]: counters add, histograms
   merge bucket-exactly (bucket counts, n, sum and nonpos add; lo/hi take
   min/max), and gauges combine by [Float.max] — the only order-free
   choice short of keeping every sample.  Counter and histogram merges
   are commutative and associative, so merging per-worker registries in
   worker-slot order yields the same totals whatever the work-stealing
   schedule was; iteration over the source is sorted so even error
   surfacing (kind mismatches) is stable. *)
let merge ~into src =
  if into.on then begin
    check_owner into;
    let cells =
      Hashtbl.fold (fun key cell acc -> (key, cell) :: acc) src.cells []
      |> List.sort (fun (a, _) (b, _) -> compare_key a b)
    in
    List.iter
      (fun (k, c) ->
        match c with
        | Counter r -> incr into ?switch:k.switch ~by:!r k.name
        | Gauge r ->
          let v =
            match gauge_value into ?switch:k.switch k.name with
            | Some old -> Float.max old !r
            | None -> !r
          in
          set_gauge into ?switch:k.switch k.name v
        | Hist h -> (
          match
            cell_of into ?switch:k.switch k.name
              ~make:(fun () ->
                Hist
                  {
                    h_n = 0;
                    h_sum = 0.0;
                    h_lo = Float.infinity;
                    h_hi = Float.neg_infinity;
                    nonpos = 0;
                    buckets = Hashtbl.create 16;
                  })
              ~check:(function
                | Hist _ -> () | c -> wrong_kind k.name "histogram" c)
          with
          | Hist dst ->
            dst.h_n <- dst.h_n + h.h_n;
            dst.h_sum <- dst.h_sum +. h.h_sum;
            if h.h_lo < dst.h_lo then dst.h_lo <- h.h_lo;
            if h.h_hi > dst.h_hi then dst.h_hi <- h.h_hi;
            dst.nonpos <- dst.nonpos + h.nonpos;
            Hashtbl.fold (fun b r acc -> (b, !r) :: acc) h.buckets []
            |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
            |> List.iter (fun (b, n) ->
                   match Hashtbl.find_opt dst.buckets b with
                   | Some r -> r := !r + n
                   | None -> Hashtbl.replace dst.buckets b (ref n))
          | _ -> assert false))
      cells
  end

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* Round-trip float rendering for the JSON snapshot. *)
let json_num = Jsonf.num

let key_json k =
  Printf.sprintf {|"name": "%s", "switch": %s|} k.name
    (match k.switch with Some s -> string_of_int s | None -> "null")

let snapshot_json s =
  let counter (k, v) = Printf.sprintf "{%s, \"value\": %d}" (key_json k) v in
  let gauge (k, v) =
    Printf.sprintf "{%s, \"value\": %s}" (key_json k) (json_num v)
  in
  let histo (k, h) =
    Printf.sprintf
      "{%s, \"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \"p50\": %s, \
       \"p90\": %s, \"p99\": %s}"
      (key_json k) h.h_count (json_num h.h_sum) (json_num h.h_min)
      (json_num h.h_max) (json_num h.h_p50) (json_num h.h_p90)
      (json_num h.h_p99)
  in
  let list f xs = String.concat ",\n      " (List.map f xs) in
  Printf.sprintf
    {|{
    "counters": [
      %s
    ],
    "gauges": [
      %s
    ],
    "histograms": [
      %s
    ]
  }|}
    (list counter s.counters) (list gauge s.gauges) (list histo s.histograms)
