(* The calendar is a binary min-heap ordered by (time, seq), stored as
   parallel arrays: slot [i] of the heap is [times.(i)], [seqs.(i)],
   [entries.(i)] and [args.(i)].  Slots [0, size) hold the heap,
   earliest at [0]; later entries are [vacant].  Times live unboxed in a
   [Float.Array], so inserting or moving an entry allocates nothing. *)
type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;  (* Insertion order: FIFO among equal times. *)
  mutable entries : entry array;
  mutable args : int array;  (* A posted callback's argument; 0 otherwise. *)
  mutable size : int;
  mutable pending : int;
      (* Entries neither run nor retired: exact, so [pending] is O(1). *)
  mutable next_seq : int;
  mutable clock : float;
  mutable executed : int;
  mutable probe : (unit -> unit) option;
      (* Telemetry hook run after each executed event; [None] (the
         default) costs one pattern-match branch per event. *)
  trace : Trace.t;
  metrics : Metrics.Registry.t;
}

(* What a slot runs.  A [Posted] callback is built once by its owner
   and shared by every slot that posts it; a [Checked] one also carries
   its owner's liveness check, asked when the slot surfaces.  A
   [Scheduled] action is built per call.  A slot that has run, or is
   off the heap, holds [vacant], so the calendar keeps nothing an entry
   captured once it has surfaced. *)
and entry =
  | Posted of (int -> unit)
  | Checked of { live : int -> bool; run : int -> unit }
  | Scheduled of (unit -> unit)

type callback = entry

let vacant = Posted ignore

let create ?(trace = Trace.disabled) ?(metrics = Metrics.Registry.disabled) ()
    =
  {
    times = Float.Array.create 0;
    seqs = [||];
    entries = [||];
    args = [||];
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

let callback ?live f =
  match live with None -> Posted f | Some live -> Checked { live; run = f }

(* Copy heap slot [src] to slot [dst]. *)
let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  t.seqs.(dst) <- t.seqs.(src);
  t.entries.(dst) <- t.entries.(src);
  t.args.(dst) <- t.args.(src)

(* Move the entry at slot [i] up past each parent it precedes.  The
   moving entry is held in locals while the hole rises, so its time
   stays unboxed. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs in
  let time = Float.Array.unsafe_get times i
  and seq = seqs.(i)
  and entry = t.entries.(i)
  and arg = t.args.(i) in
  let hole = ref i and rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pt = Float.Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
    else rising := false
  done;
  Float.Array.unsafe_set times !hole time;
  seqs.(!hole) <- seq;
  t.entries.(!hole) <- entry;
  t.args.(!hole) <- arg

(* Fill the hole at the root with the entry at slot [size] (the last
   one, just cut off the heap), moving up the earlier child while it
   precedes that entry. *)
let sift_down t size =
  let times = t.times and seqs = t.seqs in
  let time = Float.Array.unsafe_get times size
  and seq = seqs.(size)
  and entry = t.entries.(size)
  and arg = t.args.(size) in
  let hole = ref 0 and sinking = ref true in
  while !sinking do
    let left = (2 * !hole) + 1 in
    if left >= size then sinking := false
    else begin
      let right = left + 1 in
      let c =
        if right < size then begin
          let rt = Float.Array.unsafe_get times right
          and lt = Float.Array.unsafe_get times left in
          if rt < lt || (rt = lt && seqs.(right) < seqs.(left)) then right
          else left
        end
        else left
      in
      let ct = Float.Array.unsafe_get times c in
      if ct < time || (ct = time && seqs.(c) < seq) then begin
        move t ~src:c ~dst:!hole;
        hole := c
      end
      else sinking := false
    end
  done;
  Float.Array.unsafe_set times !hole time;
  seqs.(!hole) <- seq;
  t.entries.(!hole) <- entry;
  t.args.(!hole) <- arg

let grow t =
  let capacity = Array.length t.seqs in
  let larger = max 8 (2 * capacity) in
  let times = Float.Array.create larger in
  Float.Array.blit t.times 0 times 0 capacity;
  let extend a fill =
    let b = Array.make larger fill in
    Array.blit a 0 b 0 capacity;
    b
  in
  t.times <- times;
  t.seqs <- extend t.seqs 0;
  t.entries <- extend t.entries vacant;
  t.args <- extend t.args 0

(* Write [time] into the first free slot, growing the arrays first if
   they are full.  Inlined into each entry point (and, with them, into
   their callers where the build allows it), so [time] is never boxed
   to cross a call. *)
let[@inline] claim t time =
  if t.size = Float.Array.length t.times then grow t;
  Float.Array.unsafe_set t.times t.size time

(* Give the slot {!claim} wrote its time into to [entry] and [arg], and
   restore the heap. *)
let push t entry arg =
  let i = t.size in
  t.seqs.(i) <- t.next_seq;
  t.entries.(i) <- entry;
  t.args.(i) <- arg;
  sift_up t i;
  t.size <- i + 1;
  t.next_seq <- t.next_seq + 1;
  t.pending <- t.pending + 1

(* {!claim} the slot for [now +. delay], checked as {!schedule}
   documents; [fn] names the entry point in the error. *)
let[@inline] claim_after t ~fn delay =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg (fn ^ ": delay must be finite and non-negative");
  let time = t.clock +. delay in
  if time = Float.infinity then
    invalid_arg (fn ^ ": now + delay overflows to infinity");
  claim t time

let[@inline] post t ~delay cb arg =
  claim_after t ~fn:"Engine.post" delay;
  push t cb arg

(* {!claim} the slot for absolute [time], checked as {!schedule_at}
   documents. *)
let[@inline] claim_at t ~fn time =
  if not (Float.is_finite time) then
    invalid_arg (fn ^ ": time must be finite");
  if time < t.clock then invalid_arg (fn ^ ": time is in the past");
  claim t time

let[@inline] post_at t ~time cb arg =
  claim_at t ~fn:"Engine.post_at" time;
  push t cb arg

let retire t =
  if t.pending = 0 then invalid_arg "Engine.retire: nothing is pending";
  t.pending <- t.pending - 1

let[@inline] schedule t ~delay f =
  claim_after t ~fn:"Engine.schedule" delay;
  push t (Scheduled f) 0

let schedule_at t ~time f =
  claim_at t ~fn:"Engine.schedule_at" time;
  push t (Scheduled f) 0

let pending t = t.pending

let events_executed t = t.executed

let set_probe t f = t.probe <- Some f

let clear_probe t = t.probe <- None

(* Start executing an entry due at [time].  The clock is a boxed field,
   so [now] returns it without allocating; it is re-boxed only when the
   time moves, not for each entry at the same time. *)
let[@inline] enter t time =
  t.pending <- t.pending - 1;
  if time <> t.clock then t.clock <- time;
  t.executed <- t.executed + 1

let[@inline] leave t = match t.probe with None -> () | Some probe -> probe ()

let run ?(max_events = max_int) t =
  let budget = ref max_events in
  while !budget <> 0 && t.size > 0 do
    let time = Float.Array.unsafe_get t.times 0
    and entry = t.entries.(0)
    and arg = t.args.(0) in
    let size = t.size - 1 in
    t.size <- size;
    if size > 0 then sift_down t size;
    t.entries.(size) <- vacant;
    match entry with
    | Posted f ->
      enter t time;
      f arg;
      leave t;
      decr budget
    | Checked c ->
      (* A stale entry was retired by its owner: it leaves no trace. *)
      if c.live arg then begin
        enter t time;
        c.run arg;
        leave t;
        decr budget
      end
    | Scheduled f ->
      enter t time;
      f ();
      leave t;
      decr budget
  done
