(* Ring-buffered, sim-time-bucketed time series: the flight recorder's
   windowed view of a run.  One [series] per name; each
   holds [cap] buckets of [width] seconds of simulated time, addressed
   by bucket index modulo [cap], and old buckets are overwritten
   (counted, never silently) once the window wraps.

   A ring is six parallel columns, allocated at the key's first sample:
   [index] and [count] as [int array]s, the float aggregates as
   [Float.Array]s, so a sample writes its bucket in place and allocates
   nothing. *)

let empty_index = min_int

type series = {
  live : bool;  (* false only for the shared handle of [disabled] *)
  width : float;
  cap : int;
  (* Bucket held per slot, or [empty_index]; [[||]] until the first
     sample, like the other five columns. *)
  mutable index : int array;
  mutable count : int array;
  mutable sum : Float.Array.t;
  mutable lo : Float.Array.t;
  mutable hi : Float.Array.t;
  mutable last : Float.Array.t;
  mutable newest : int;  (* largest bucket index seen; [empty_index] fresh *)
  mutable evicted : int;  (* buckets overwritten after the window wrapped *)
  mutable late : int;  (* samples older than the retained window, dropped *)
}

type handle = series

type t = {
  on : bool;
  t_width : float;
  t_cap : int;
  tbl : (string, series) Hashtbl.t;
}

let fresh ~live ~width ~cap =
  {
    live;
    width;
    cap;
    index = [||];
    count = [||];
    sum = Float.Array.create 0;
    lo = Float.Array.create 0;
    hi = Float.Array.create 0;
    last = Float.Array.create 0;
    newest = empty_index;
    evicted = 0;
    late = 0;
  }

(* Never written: [record] returns on [live = false] first. *)
let dead = fresh ~live:false ~width:1.0 ~cap:1

let disabled =
  { on = false; t_width = 1.0; t_cap = 1; tbl = Hashtbl.create 1 }

let create ?(bucket = 1.0) ?(cap = 512) () =
  if not (bucket > 0.0 && Float.is_finite bucket) then
    invalid_arg "Metrics.Series.create: bucket width must be positive";
  if cap < 1 then invalid_arg "Metrics.Series.create: cap must be >= 1";
  { on = true; t_width = bucket; t_cap = cap; tbl = Hashtbl.create 32 }

let enabled t = t.on

let handle t name =
  if not t.on then dead
  else
    match Hashtbl.find_opt t.tbl name with
    | Some s -> s
    | None ->
      let s = fresh ~live:true ~width:t.t_width ~cap:t.t_cap in
      Hashtbl.replace t.tbl name s;
      s

(* The first sample's columns: every slot empty. *)
let allocate s =
  s.index <- Array.make s.cap empty_index;
  s.count <- Array.make s.cap 0;
  s.sum <- Float.Array.make s.cap 0.0;
  s.lo <- Float.Array.make s.cap Float.infinity;
  s.hi <- Float.Array.make s.cap Float.neg_infinity;
  s.last <- Float.Array.make s.cap 0.0

let[@inline] record s ~time v =
  if s.live then begin
    if Array.length s.index = 0 then allocate s;
    let idx = int_of_float (Float.floor (time /. s.width)) in
    if s.newest <> empty_index && idx <= s.newest - s.cap then
      (* Older than anything the window can still hold: the slot it
         would land in belongs to a newer bucket.  Count, don't corrupt. *)
      s.late <- s.late + 1
    else begin
      let slot = ((idx mod s.cap) + s.cap) mod s.cap in
      let held = s.index.(slot) in
      if held <> idx then begin
        (* Within the retained window two distinct indices can never
           share a slot, so a mismatch means the occupant (if any) just
           fell out of the window. *)
        if held <> empty_index then s.evicted <- s.evicted + 1;
        s.index.(slot) <- idx;
        s.count.(slot) <- 0;
        Float.Array.set s.sum slot 0.0;
        Float.Array.set s.lo slot Float.infinity;
        Float.Array.set s.hi slot Float.neg_infinity
      end;
      s.count.(slot) <- s.count.(slot) + 1;
      Float.Array.set s.sum slot (Float.Array.get s.sum slot +. v);
      if v < Float.Array.get s.lo slot then Float.Array.set s.lo slot v;
      if v > Float.Array.get s.hi slot then Float.Array.set s.hi slot v;
      Float.Array.set s.last slot v;
      if s.newest = empty_index || idx > s.newest then s.newest <- idx
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
  l_evicted : int;
  l_late : int;
  l_points : point list;
}

let points_of s =
  List.init (Array.length s.index) Fun.id
  |> List.filter_map (fun i ->
         let b = s.index.(i) in
         if b = empty_index then None
         else
           Some
             {
               p_bucket = b;
               p_time = float_of_int b *. s.width;
               p_count = s.count.(i);
               p_sum = Float.Array.get s.sum i;
               p_min = Float.Array.get s.lo i;
               p_max = Float.Array.get s.hi i;
               p_last = Float.Array.get s.last i;
             })
  |> List.sort (fun a b -> Int.compare a.p_bucket b.p_bucket)

(* A key is listed from its first sample on: a handle never recorded
   into leaves no line. *)
let lines t =
  Hashtbl.fold
    (fun key s acc -> if Array.length s.index = 0 then acc else (key, s) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, s) ->
         {
           l_name = name;
           l_evicted = s.evicted;
           l_late = s.late;
           l_points = points_of s;
         })
