(* Scheduling: block-per-worker with back-end stealing.

   Worker [k] owns the contiguous index block [next, limit); it consumes
   from [next].  A worker whose block is empty locks the victim with the
   most remaining work and takes one index off [limit].  Determinism
   does not depend on any of this: results land in a slot array by task
   index, and tasks derive their randomness from their index alone. *)

type block = {
  lock : Mutex.t;
  mutable next : int;
  mutable limit : int;
}

let take_own b =
  Mutex.lock b.lock;
  let r =
    if b.next < b.limit then begin
      let i = b.next in
      b.next <- i + 1;
      Some i
    end
    else None
  in
  Mutex.unlock b.lock;
  r

let steal b =
  Mutex.lock b.lock;
  let r =
    if b.next < b.limit then begin
      b.limit <- b.limit - 1;
      Some b.limit
    end
    else None
  in
  Mutex.unlock b.lock;
  r

let remaining b =
  Mutex.lock b.lock;
  let r = b.limit - b.next in
  Mutex.unlock b.lock;
  r

(* A full scan finding every block empty terminates the worker: no task
   is ever added after the fork, so emptiness is stable. *)
let next_task blocks k =
  match take_own blocks.(k) with
  | Some i -> Some i
  | None ->
    let victim = ref (-1) and best = ref 0 in
    Array.iteri
      (fun j b ->
        if j <> k then begin
          let r = remaining b in
          if r > !best then begin
            best := r;
            victim := j
          end
        end)
      blocks;
    if !victim < 0 then None else steal blocks.(!victim)

let run_task f i results =
  results.(i) <-
    Some
      (match f () with
      | v -> Ok v
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        Error (exn, bt))

let map ~domains f xs =
  let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
  let n = Array.length tasks in
  let workers = max 1 (min domains n) in
  let results = Array.make n None in
  if workers <= 1 then Array.iteri (fun i f -> run_task f i results) tasks
  else begin
    let blocks =
      Array.init workers (fun k ->
          let chunk = n / workers and rem = n mod workers in
          let lo = (k * chunk) + min k rem in
          let hi = lo + chunk + if k < rem then 1 else 0 in
          { lock = Mutex.create (); next = lo; limit = hi })
    in
    let worker k =
      let rec loop () =
        match next_task blocks k with
        | Some i ->
          run_task tasks.(i) i results;
          loop ()
        | None -> ()
      in
      loop ()
    in
    let spawned =
      Array.init (workers - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    worker 0;
    Array.iter Domain.join spawned
  end;
  (* Every task has run; [Array.map] goes in index order, so the
     lowest-indexed failure is the one raised. *)
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error (exn, bt)) -> Printexc.raise_with_backtrace exn bt
         | None -> assert false (* every index is taken exactly once *))
       results)
