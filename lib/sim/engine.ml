(* The calendar is one store of parallel arrays: times unboxed in a
   [Float.Array], insertion numbers, entries and [int] arguments.
   Placing or moving an entry allocates nothing once the store has
   grown.  The store holds two structures and grows once for both:

   - the heap, a binary min-heap ordered by (time, seq).  Its keys sit
     in slots [0, size) of [times] and [seqs] and of [refs], an array
     of the heap's own, earliest at [0]; a key's [refs] names the slot
     of [entries] and [args] that holds its payload.  Sifting moves
     only the three unboxed keys, so it writes no boxed slot and runs
     no write barrier; a payload stays in its slot until it is popped.
     Payload slots lie in [0, reach), the free ones chained through
     [args];
   - a few FIFO lanes, each holding the entries placed at [now +. d]
     for its one delay [d], in blocks carved from the top of the store
     down to [low].  A lane slot holds its key and payload together,
     since nothing in a lane moves.

   For a fixed [d] the clock never decreases and IEEE addition is
   monotone, so [now +. d] never decreases, and insertion numbers always
   increase: each lane is already sorted by (time, seq).  So the least
   of the heap root and the lane heads is the entry the heap alone would
   surface, entry for entry.

   Slots in [reach, low) are free; a payload slot that has run, or is
   free, holds [vacant]. *)
type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;  (* Insertion order: FIFO among equal times. *)
  mutable refs : int array;
      (* A heap key's payload slot.  Not part of the store: the lanes
         need none, so it grows only when [reach] outgrows it. *)
  mutable entries : entry array;
  mutable args : int array;
      (* A posted callback's argument; 0 otherwise.  In a free heap
         payload slot, the next free one; in a block's header slot, the
         next block of its lane or of the free list. *)
  mutable size : int;
  mutable reach : int;  (* One past the highest heap payload slot. *)
  mutable spare : int;  (* First free heap payload slot; [-1] if none. *)
  mutable low : int;  (* Lowest slot of a carved block. *)
  mutable free : int;  (* First block of the free list; [-1] if none. *)
  keys : Float.Array.t;
      (* Lane [i] holds entries placed [keys.(i)] ahead; the last slot
         is the delay that last found no lane. *)
  lanes : lane array;
  mutable queued : int;  (* Entries in the lanes. *)
  stamp : Float.Array.t;
      (* The time, then the delay, of the entry being placed: written by
         the inlined entry points, so neither crosses a call boxed. *)
  clock : Float.Array.t;
      (* The current time, unboxed: entering an entry writes it without
         allocating. *)
  mutable shown : float;
      (* The clock as {!now} last boxed it. *)
  mutable pending : int;
      (* Entries neither run nor retired: exact, so [pending] is O(1). *)
  mutable next_seq : int;
  mutable executed : int;
  mutable probe : (unit -> unit) option;
      (* Telemetry hook run after each executed event; [None] (the
         default) costs one pattern-match branch per event. *)
  trace : Trace.t;
  metrics : Metrics.Registry.t;
}

(* A lane's entries, in a chain of blocks.  Positions in the top region
   are distances [u] from the store's end (slot [capacity - u]), which
   growth does not move: block [k] spans [u] in [k * block + 1,
   (k + 1) * block], its header at the top and its entries below it.
   [head] is the earliest entry; [tail] is the position the next entry
   takes, a header's once the tail block is full.  A lane with no entry
   holds no block. *)
and lane = { mutable head : int; mutable tail : int; mutable length : int }

(* What a slot runs: a callback built once by its owner and shared by
   every slot that posts it, with the owner's liveness check, if any,
   asked when the slot surfaces. *)
and entry = { live : (int -> bool) option; run : int -> unit }

type callback = entry

let vacant = { live = None; run = ignore }

(* Enough for the fixed delays of a run: the hop, the computation time
   and the odd timer. *)
let lane_count = 4

(* Slots per lane block, header included: a power of two.  A header
   costs a slot in [block], and each lane holds a partly filled block. *)
let block = 8

let create ?(trace = Trace.disabled) ?(metrics = Metrics.Registry.disabled) ()
    =
  {
    times = Float.Array.create 0;
    seqs = [||];
    refs = [||];
    entries = [||];
    args = [||];
    size = 0;
    reach = 0;
    spare = -1;
    low = 0;
    free = -1;
    (* A NaN key equals no delay. *)
    keys = Float.Array.make (lane_count + 1) Float.nan;
    lanes = Array.init lane_count (fun _ -> { head = 0; tail = 0; length = 0 });
    queued = 0;
    stamp = Float.Array.create 2;
    clock = Float.Array.make 1 0.0;
    shown = 0.0;
    pending = 0;
    next_seq = 0;
    executed = 0;
    probe = None;
    trace;
    metrics;
  }

let trace t = t.trace

let metrics t = t.metrics

let[@inline] clock t = Float.Array.unsafe_get t.clock 0

(* The clock boxed at most once per time: [shown] is reused until the
   clock has moved. *)
let now t =
  let c = clock t in
  if c <> t.shown then t.shown <- c;
  t.shown

let callback ?live run = { live; run }

(* Copy the heap key in slot [src] to slot [dst]. *)
let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  t.seqs.(dst) <- t.seqs.(src);
  t.refs.(dst) <- t.refs.(src)

(* Move the key in slot [i] up past each parent it precedes.  The
   moving key is held in locals while the hole rises, so its time stays
   unboxed. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs in
  let time = Float.Array.unsafe_get times i
  and seq = seqs.(i)
  and payload = t.refs.(i) in
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
  t.refs.(!hole) <- payload

(* Fill the hole at the root with the key in slot [size] (the last
   one, just cut off the heap), moving up the earlier child while it
   precedes that key. *)
let sift_down t size =
  let times = t.times and seqs = t.seqs in
  let time = Float.Array.unsafe_get times size
  and seq = seqs.(size)
  and payload = t.refs.(size) in
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
  t.refs.(!hole) <- payload

(* [a] in an array of [larger] slots, its heap region kept and its top
   region from [low] moved up by [shift]. *)
let resized t a larger shift fill =
  let b = Array.make larger fill in
  Array.blit a 0 b 0 t.reach;
  Array.blit a t.low b (t.low + shift) (Array.length a - t.low);
  b

(* Double the store, first to room for a block per lane: the heap keeps
   its slots, the top region moves up to the new end. *)
let grow t =
  let capacity = Array.length t.seqs in
  let larger = max (lane_count * block) (2 * capacity) in
  let shift = larger - capacity in
  let times = Float.Array.create larger in
  Float.Array.blit t.times 0 times 0 t.reach;
  Float.Array.blit t.times t.low times (t.low + shift) (capacity - t.low);
  t.times <- times;
  t.seqs <- resized t t.seqs larger shift 0;
  t.entries <- resized t t.entries larger shift vacant;
  t.args <- resized t t.args larger shift 0;
  t.low <- t.low + shift

(* The slot at position [u] from the store's end. *)
let[@inline] slot t u = Array.length t.seqs - u

(* Block [k]'s header holds the block after it. *)
let[@inline] next_block t k = t.args.(slot t ((k + 1) * block))

let[@inline] set_next_block t k next =
  t.args.(slot t ((k + 1) * block)) <- next

(* A block off the free list, else one carved below [low]. *)
let take_block t =
  if t.free >= 0 then begin
    let k = t.free in
    t.free <- next_block t k;
    k
  end
  else begin
    while t.low - block < t.reach do
      grow t
    done;
    t.low <- t.low - block;
    ((Array.length t.seqs - t.low) / block) - 1
  end

let give_block t k =
  set_next_block t k t.free;
  t.free <- k

(* Count an entry just placed. *)
let[@inline] placed t =
  t.next_seq <- t.next_seq + 1;
  t.pending <- t.pending + 1

(* A free heap payload slot: a spare one, else one past [reach].  The
   heap holds a key per payload, so its keys fit below [reach] too. *)
let payload_slot t =
  if t.spare >= 0 then begin
    let p = t.spare in
    t.spare <- t.args.(p);
    p
  end
  else begin
    if t.reach = t.low then grow t;
    let p = t.reach in
    if p = Array.length t.refs then begin
      (* The heap fits below [low], so the store's capacity is all it
         can reach until the store grows. *)
      let refs = Array.make (Array.length t.seqs) 0 in
      Array.blit t.refs 0 refs 0 t.size;
      t.refs <- refs
    end;
    t.reach <- p + 1;
    p
  end

(* Place [entry] and [arg] in the heap at the time in [stamp]. *)
let push t entry arg =
  let p = payload_slot t in
  t.entries.(p) <- entry;
  t.args.(p) <- arg;
  let i = t.size in
  Float.Array.unsafe_set t.times i (Float.Array.unsafe_get t.stamp 0);
  t.seqs.(i) <- t.next_seq;
  t.refs.(i) <- p;
  sift_up t i;
  t.size <- i + 1;
  placed t

(* The lane keyed [stamp]'s delay; else, if the last delay that found
   no lane was this one too, an empty lane re-keyed to it; else none
   ([lane_count]).  Waiting for a repeat keeps delays that never recur,
   such as jittered ones, in the heap instead of cycling them through
   the lanes. *)
let[@inline] lane_for t =
  let keys = t.keys and delay = Float.Array.unsafe_get t.stamp 1 in
  let i = ref 0 in
  while !i < lane_count && Float.Array.unsafe_get keys !i <> delay do
    incr i
  done;
  if !i = lane_count then
    if Float.Array.unsafe_get keys lane_count = delay then begin
      i := 0;
      while !i < lane_count && t.lanes.(!i).length > 0 do
        incr i
      done;
      if !i < lane_count then Float.Array.unsafe_set keys !i delay
    end
    else Float.Array.unsafe_set keys lane_count delay;
  !i

(* Place [entry] and [arg] at the time in [stamp], [stamp]'s delay
   after now: at the tail of that delay's lane, or in the heap. *)
let place t entry arg =
  let i = lane_for t in
  if i = lane_count then push t entry arg
  else begin
    let l = t.lanes.(i) in
    if l.length = 0 then begin
      let k = take_block t in
      l.head <- ((k + 1) * block) - 1;
      l.tail <- l.head
    end
    else if l.tail land (block - 1) = 0 then begin
      (* The tail block is full: chain a new one after it. *)
      let k = take_block t in
      set_next_block t (l.tail / block) k;
      l.tail <- ((k + 1) * block) - 1
    end;
    let j = slot t l.tail in
    Float.Array.unsafe_set t.times j (Float.Array.unsafe_get t.stamp 0);
    t.seqs.(j) <- t.next_seq;
    t.entries.(j) <- entry;
    t.args.(j) <- arg;
    l.tail <- l.tail - 1;
    l.length <- l.length + 1;
    t.queued <- t.queued + 1;
    placed t
  end

(* The time and the delay are written into [stamp] here, unboxed:
   [post] and [post_at] are inlined into their callers where the build
   allows it, so neither float is boxed to cross a call. *)
let[@inline] post t ~delay cb arg =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Engine.post: delay must be finite and non-negative";
  let time = clock t +. delay in
  if time = Float.infinity then
    invalid_arg "Engine.post: now + delay overflows to infinity";
  Float.Array.unsafe_set t.stamp 0 time;
  Float.Array.unsafe_set t.stamp 1 delay;
  place t cb arg

let[@inline] post_at t ~time cb arg =
  if not (Float.is_finite time) then
    invalid_arg "Engine.post_at: time must be finite";
  if time < clock t then invalid_arg "Engine.post_at: time is in the past";
  Float.Array.unsafe_set t.stamp 0 time;
  push t cb arg

let retire t =
  if t.pending = 0 then invalid_arg "Engine.retire: nothing is pending";
  t.pending <- t.pending - 1

let schedule t ~delay f = post t ~delay (callback (fun _ -> f ())) 0

let pending t = t.pending

let events_executed t = t.executed

let set_probe t f = t.probe <- Some f

let clear_probe t = t.probe <- None

(* The slot holding the head of source [s]: lane [s], or the heap root
   for [lane_count]. *)
let[@inline] head_slot t s =
  if s = lane_count then 0 else slot t t.lanes.(s).head

(* The source of the earliest entry: the lane whose head precedes the
   heap root and every other lane head, or [lane_count] for the heap.
   Some lane must hold an entry. *)
let earliest t =
  let best = ref (if t.size > 0 then lane_count else -1) in
  for i = 0 to lane_count - 1 do
    if t.lanes.(i).length > 0 then
      if !best < 0 then best := i
      else begin
        let j = head_slot t i and b = head_slot t !best in
        let time = Float.Array.unsafe_get t.times j
        and bt = Float.Array.unsafe_get t.times b in
        if time < bt || (time = bt && t.seqs.(j) < t.seqs.(b)) then best := i
      end
  done;
  !best

(* Take the root off the heap, its payload in slot [p] given back. *)
let pop t p =
  t.entries.(p) <- vacant;
  t.args.(p) <- t.spare;
  t.spare <- p;
  let size = t.size - 1 in
  t.size <- size;
  if size > 0 then sift_down t size

(* Take the head, in slot [j], off lane [l], giving back each block it
   leaves. *)
let advance t l j =
  t.entries.(j) <- vacant;
  t.queued <- t.queued - 1;
  l.length <- l.length - 1;
  if l.length = 0 then give_block t ((l.head - 1) / block)
  else begin
    l.head <- l.head - 1;
    if l.head land (block - 1) = 0 then begin
      (* Past the block's last entry: on to the next block. *)
      let k = l.head / block in
      let next = next_block t k in
      give_block t k;
      l.head <- ((next + 1) * block) - 1
    end
  end

(* Start executing an entry due at [time].  The clock is stored
   unboxed; only {!now} boxes it. *)
let[@inline] enter t time =
  t.pending <- t.pending - 1;
  Float.Array.unsafe_set t.clock 0 time;
  t.executed <- t.executed + 1

let[@inline] leave t = match t.probe with None -> () | Some probe -> probe ()

let run ?(max_events = max_int) t =
  let budget = ref max_events in
  while !budget <> 0 && t.size + t.queued > 0 do
    let src = if t.queued = 0 then lane_count else earliest t in
    let j = head_slot t src in
    (* A lane slot holds its own payload; the heap root's is elsewhere. *)
    let p = if src = lane_count then t.refs.(0) else j in
    let time = Float.Array.unsafe_get t.times j
    and entry = t.entries.(p)
    and arg = t.args.(p) in
    if src = lane_count then pop t p else advance t t.lanes.(src) j;
    (* A stale entry was retired by its owner: it leaves no trace. *)
    if match entry.live with None -> true | Some live -> live arg then begin
      enter t time;
      entry.run arg;
      leave t;
      decr budget
    end
  done
