(* Ring-buffered, sim-time-bucketed time series: the flight recorder's
   windowed view of a run.  One [series] per (name, switch) key; each
   holds [cap] pre-allocated buckets of [width] seconds of simulated
   time, addressed by bucket index modulo [cap] — recording never
   allocates after the first sample of a key, and old buckets are
   overwritten (counted, never silently) once the window wraps. *)

type bucket = {
  mutable b_index : int;  (* time bucket held, or [empty_index] *)
  mutable b_count : int;
  mutable b_sum : float;
  mutable b_min : float;
  mutable b_max : float;
  mutable b_last : float;
}

let empty_index = min_int

type key = { k_name : string; k_switch : int option }

type series = {
  ring : bucket array;
  mutable s_newest : int;  (* largest bucket index seen; [empty_index] fresh *)
  mutable s_evicted : int;  (* buckets overwritten after the window wrapped *)
  mutable s_late : int;  (* samples older than the retained window, dropped *)
}

type t = {
  on : bool;
  width : float;
  cap : int;
  tbl : (key, series) Hashtbl.t;
}

let disabled =
  { on = false; width = 1.0; cap = 1; tbl = Hashtbl.create 1 }

let create ?(bucket = 1.0) ?(cap = 512) () =
  if not (bucket > 0.0 && Float.is_finite bucket) then
    invalid_arg "Metrics.Series.create: bucket width must be positive";
  if cap < 1 then invalid_arg "Metrics.Series.create: cap must be >= 1";
  { on = true; width = bucket; cap; tbl = Hashtbl.create 32 }

let enabled t = t.on

let bucket_index t time = int_of_float (Float.floor (time /. t.width))

let fresh_series t =
  {
    ring =
      Array.init t.cap (fun _ ->
          {
            b_index = empty_index;
            b_count = 0;
            b_sum = 0.0;
            b_min = Float.infinity;
            b_max = Float.neg_infinity;
            b_last = 0.0;
          });
    s_newest = empty_index;
    s_evicted = 0;
    s_late = 0;
  }

let series_of t key =
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
    let s = fresh_series t in
    Hashtbl.replace t.tbl key s;
    s

let add t ?switch ~name ~time v =
  if t.on then begin
    let idx = bucket_index t time in
    let s = series_of t { k_name = name; k_switch = switch } in
    if s.s_newest <> empty_index && idx <= s.s_newest - t.cap then
      (* Older than anything the window can still hold: the slot it
         would land in belongs to a newer bucket.  Count, don't corrupt. *)
      s.s_late <- s.s_late + 1
    else begin
      let slot = ((idx mod t.cap) + t.cap) mod t.cap in
      let b = s.ring.(slot) in
      if b.b_index <> idx then begin
        (* Within the retained window two distinct indices can never
           share a slot, so a mismatch means the occupant (if any) just
           fell out of the window. *)
        if b.b_index <> empty_index then s.s_evicted <- s.s_evicted + 1;
        b.b_index <- idx;
        b.b_count <- 0;
        b.b_sum <- 0.0;
        b.b_min <- Float.infinity;
        b.b_max <- Float.neg_infinity;
        b.b_last <- 0.0
      end;
      b.b_count <- b.b_count + 1;
      b.b_sum <- b.b_sum +. v;
      if v < b.b_min then b.b_min <- v;
      if v > b.b_max then b.b_max <- v;
      b.b_last <- v;
      if s.s_newest = empty_index || idx > s.s_newest then s.s_newest <- idx
    end
  end

(* ------------------------------------------------------------------ *)
(* Reading *)

type point = {
  p_bucket : int;
  p_time : float;  (** Bucket start, [p_bucket * width]. *)
  p_count : int;
  p_sum : float;
  p_min : float;
  p_max : float;
  p_last : float;
}

type line = {
  l_name : string;
  l_switch : int option;
  l_evicted : int;
  l_late : int;
  l_points : point list;
}

let compare_key a b =
  match String.compare a.k_name b.k_name with
  | 0 -> (
    match (a.k_switch, b.k_switch) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some x, Some y -> Int.compare x y)
  | c -> c

let points_of t s =
  Array.to_list s.ring
  |> List.filter_map (fun b ->
         if b.b_index = empty_index then None
         else
           Some
             {
               p_bucket = b.b_index;
               p_time = float_of_int b.b_index *. t.width;
               p_count = b.b_count;
               p_sum = b.b_sum;
               p_min = b.b_min;
               p_max = b.b_max;
               p_last = b.b_last;
             })
  |> List.sort (fun a b -> Int.compare a.p_bucket b.p_bucket)

let lines t =
  Hashtbl.fold (fun key s acc -> (key, s) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)
  |> List.map (fun (key, s) ->
         {
           l_name = key.k_name;
           l_switch = key.k_switch;
           l_evicted = s.s_evicted;
           l_late = s.s_late;
           l_points = points_of t s;
         })
