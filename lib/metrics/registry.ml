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

type key = { name : string; switch : int option }

type t = { on : bool; cells : (key, cell) Hashtbl.t; owner : int }

and cell = Counter of counted | Hist of hist

(* A counter's value: the count of every handle listed under its key. *)
and counted = { mutable handles : counter list }

and counter = { mutable count : int; meter : meter }

(* Where a handle's bumps go besides its own count: nowhere for a handle
   of [disabled], else into its registry, which lists it on the first. *)
and meter =
  | Private
  | Metered of {
      home : t;
      name : string;
      switch : int option;
      mutable listed : bool;
    }

(* Never mutated: every recording call returns on [on = false] before it
   reaches the cell table or the owner check, so the one shared value is
   safe to record into from any domain. *)
let disabled = { on = false; cells = Hashtbl.create 1; owner = -1 }

let create () =
  { on = true; cells = Hashtbl.create 64; owner = (Domain.self () :> int) }

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

let kind_name = function Counter _ -> "counter" | Hist _ -> "histogram"

let cell_of t ?switch name ~make =
  check_owner t;
  let key = { name; switch } in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
    let c = make () in
    Hashtbl.replace t.cells key c;
    c

let wrong_kind name want got =
  invalid_arg
    (Printf.sprintf "Metrics.Registry: %s is a %s, not a %s" name
       (kind_name got) want)

let counted_of t ?switch name =
  match
    cell_of t ?switch name ~make:(fun () -> Counter { handles = [] })
  with
  | Counter c -> c
  | c -> wrong_kind name "counter" c

let counter t ?switch name =
  {
    count = 0;
    meter =
      (if t.on then Metered { home = t; name; switch; listed = false }
       else Private);
  }

let bump ?(by = 1) c =
  (match c.meter with
  | Private -> ()
  | Metered m when m.listed -> check_owner m.home
  | Metered m ->
    let cell = counted_of m.home ?switch:m.switch m.name in
    cell.handles <- c :: cell.handles;
    m.listed <- true);
  c.count <- c.count + by

let count c = c.count

let per_switch t n name = Array.init n (fun switch -> counter t ~switch name)

let sum = Array.fold_left (fun acc c -> acc + c.count) 0

let value c = List.fold_left (fun acc h -> acc + h.count) 0 c.handles

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
    | c -> wrong_kind name "histogram" c

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

(* ------------------------------------------------------------------ *)
(* Snapshots: deterministic order regardless of insertion history *)

type snapshot = {
  counters : (key * int) list;
  histograms : (key * histogram) list;
}

(* The unlabelled aggregate sorts before its per-switch cells. *)
let compare_key a b =
  match String.compare a.name b.name with
  | 0 -> Option.compare Int.compare a.switch b.switch
  | c -> c

let snapshot t =
  let cells =
    Hashtbl.fold (fun key cell acc -> (key, cell) :: acc) t.cells []
    |> List.sort (fun (a, _) (b, _) -> compare_key a b)
  in
  {
    counters =
      List.filter_map
        (function k, Counter c -> Some (k, value c) | _ -> None)
        cells;
    histograms =
      List.filter_map
        (function k, Hist h -> Some (k, stats_of_hist h) | _ -> None)
        cells;
  }
