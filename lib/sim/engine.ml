type t = {
  mutable heap : handle array;
      (* Slots [0, size) hold a binary min-heap of the scheduled entries,
         earliest at [0]; later slots are stale. *)
  mutable size : int;
  mutable pending : int;  (* Live entries: exact, so [pending] is O(1). *)
  mutable next_seq : int;
  mutable clock : float;
  mutable executed : int;
  mutable probe : (unit -> unit) option;
      (* Telemetry hook run after each executed event; [None] (the
         default) costs one pattern-match branch per event. *)
  trace : Trace.t;
  metrics : Metrics.Registry.t;
}

(* A scheduled entry is its own handle.  [live] holds until the entry
   fires or is cancelled; a cancelled entry stays in the heap and is
   dropped when it surfaces, and a fired one has already left it.  A
   dead entry's [action] is replaced by [ignore], so what the action
   captured is freed even while the heap, a stale slot or a caller's
   handle still holds the entry. *)
and handle = {
  time : float;
  seq : int;  (* Insertion order: FIFO among equal times. *)
  mutable action : unit -> unit;
  mutable live : bool;
  engine : t;  (* Whose [pending] a cancel decrements. *)
}

let create ?(trace = Trace.disabled) ?(metrics = Metrics.Registry.disabled) ()
    =
  {
    heap = [||];
    size = 0;
    pending = 0;
    next_seq = 0;
    clock = 0.0;
    executed = 0;
    probe = None;
    trace;
    metrics;
  }

let trace t = t.trace

let metrics t = t.metrics

let now t = t.clock

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Fill the hole at [i] with [e], moving down each parent [e] precedes. *)
let rec sift_up heap i e =
  let parent = (i - 1) / 2 in
  if i > 0 && earlier e heap.(parent) then begin
    heap.(i) <- heap.(parent);
    sift_up heap parent e
  end
  else heap.(i) <- e

(* Fill the hole at [i] with [e], moving up the earlier child while it
   precedes [e]. *)
let rec sift_down heap size i e =
  let left = (2 * i) + 1 in
  if left >= size then heap.(i) <- e
  else begin
    let right = left + 1 in
    let c =
      if right < size && earlier heap.(right) heap.(left) then right else left
    in
    if earlier heap.(c) e then begin
      heap.(i) <- heap.(c);
      sift_down heap size c e
    end
    else heap.(i) <- e
  end

let insert t time action =
  let e = { time; seq = t.next_seq; action; live = true; engine = t } in
  let capacity = Array.length t.heap in
  if t.size = capacity then begin
    let heap = Array.make (max 8 (2 * capacity)) e in
    Array.blit t.heap 0 heap 0 capacity;
    t.heap <- heap
  end;
  sift_up t.heap t.size e;
  t.size <- t.size + 1;
  t.next_seq <- t.next_seq + 1;
  t.pending <- t.pending + 1;
  e

let schedule t ~delay f =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Engine.schedule: delay must be finite and non-negative";
  let time = t.clock +. delay in
  if time = Float.infinity then
    invalid_arg "Engine.schedule: now + delay overflows to infinity";
  insert t time f

let schedule_at t ~time f =
  if not (Float.is_finite time) then
    invalid_arg "Engine.schedule_at: time must be finite";
  if time < t.clock then invalid_arg "Engine.schedule_at: time is in the past";
  insert t time f

let cancel h =
  if h.live then begin
    h.live <- false;
    h.action <- ignore;
    h.engine.pending <- h.engine.pending - 1
  end

let pending t = t.pending

let events_executed t = t.executed

let set_probe t f = t.probe <- Some f

let clear_probe t = t.probe <- None

let run ?(max_events = max_int) t =
  let budget = ref max_events in
  while !budget <> 0 && t.size > 0 do
    let e = t.heap.(0) in
    let size = t.size - 1 in
    t.size <- size;
    if size > 0 then sift_down t.heap size 0 t.heap.(size);
    if e.live then begin
      e.live <- false;
      t.pending <- t.pending - 1;
      t.clock <- e.time;
      t.executed <- t.executed + 1;
      let action = e.action in
      e.action <- ignore;
      action ();
      (match t.probe with None -> () | Some probe -> probe ());
      decr budget
    end
  done
