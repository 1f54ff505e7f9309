(* Live-entry count, shared by a queue and the handles it created so
   that [cancel], which sees only a handle, can keep it exact. *)
type counter = { mutable live : int }

type state = Queued | Retired | Cancelled

type handle = { mutable state : state; counter : counter }

type 'a entry = { time : float; seq : int; payload : 'a; handle : handle }

type 'a t = {
  heap : 'a entry Heap.t;
  mutable next_seq : int;
  counter : counter;
}

let compare_entry a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  { heap = Heap.create ~cmp:compare_entry; next_seq = 0; counter = { live = 0 } }

let schedule q ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.schedule: non-finite time";
  let handle = { state = Queued; counter = q.counter } in
  Heap.add q.heap { time; seq = q.next_seq; payload; handle };
  q.next_seq <- q.next_seq + 1;
  q.counter.live <- q.counter.live + 1;
  handle

let cancel handle =
  match handle.state with
  | Queued ->
    handle.counter.live <- handle.counter.live - 1;
    handle.state <- Cancelled
  | Retired -> handle.state <- Cancelled
  | Cancelled -> ()

let is_cancelled handle =
  match handle.state with Cancelled -> true | Queued | Retired -> false

(* Cancellation is lazy: a cancelled entry stays in the heap and is
   discarded when it surfaces. *)
let rec pop q =
  match Heap.pop q.heap with
  | None -> None
  | Some e -> (
    match e.handle.state with
    | Cancelled -> pop q
    | Queued | Retired ->
      e.handle.state <- Retired;
      q.counter.live <- q.counter.live - 1;
      Some (e.time, e.payload))

let rec peek_time q =
  match Heap.peek q.heap with
  | None -> None
  | Some e ->
    if is_cancelled e.handle then begin
      ignore (Heap.pop q.heap);
      peek_time q
    end
    else Some e.time

let length q = q.counter.live
