type stats = {
  task : int;
  wall_s : float;
  alloc_bytes : float;
  domain : int;
}

type 'a timed = { value : 'a; stats : stats }

type batch = {
  elapsed_s : float;
  seq_estimate_s : float;
  domains : int;
}

(* ------------------------------------------------------------------ *)
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

let run_task f i slot results =
  (* dgmc-analyze: allow nondet-source — wall-clock timing of task
     execution; never feeds simulation state *)
  let t0 = Unix.gettimeofday () in
  let a0 = Gc.allocated_bytes () in
  let outcome =
    match f () with
    | v -> Ok v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      Error (exn, bt)
  in
  (* dgmc-analyze: allow nondet-source — wall-clock timing measurement *)
  let wall_s = Unix.gettimeofday () -. t0 in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  results.(i) <-
    Some (outcome, { task = i; wall_s; alloc_bytes; domain = slot })

let raise_first results =
  Array.iter
    (function
      | Some (Error (exn, bt), _) -> Printexc.raise_with_backtrace exn bt
      | Some (Ok _, _) | None -> ())
    results

(* Registry is not domain-safe: per-task stats are observed here, on the
   calling domain, after every worker has joined. *)
let observe_stats metrics timed =
  match metrics with
  | None -> ()
  | Some m ->
    Array.iter
      (fun t ->
        Metrics.Registry.observe m "pool.task_wall_s" t.stats.wall_s;
        Metrics.Registry.observe m "pool.task_alloc_bytes" t.stats.alloc_bytes)
      timed

(* Generalized batch core: tasks receive a per-worker child registry
   (or [None] when the batch is unmetered).  Registry is not domain-safe,
   so a worker can never record into the caller's registry directly;
   instead each worker slot creates a registry {e inside its own domain}
   — making it that domain's owner — and after every worker has joined,
   the quiescent children are folded into the parent in worker-slot
   order, which is deterministic however the work was stolen (counter
   and histogram merges commute; see {!Metrics.Registry.merge}). *)
let run_batch_gen ?(domains = 1) ?metrics tasks =
  let n = Array.length tasks in
  (* dgmc-analyze: allow nondet-source — wall-clock timing of the batch *)
  let started = Unix.gettimeofday () in
  let workers = max 1 (min domains n) in
  let results = Array.make n None in
  let children = Array.make workers None in
  (* Called on the worker's own domain, so the child is owned there. *)
  let child_registry slot =
    match metrics with
    | None -> None
    | Some _ ->
      let r = Metrics.Registry.create () in
      children.(slot) <- Some r;
      Some r
  in
  if workers <= 1 then begin
    let reg = child_registry 0 in
    Array.iteri (fun i f -> run_task (fun () -> f reg) i 0 results) tasks
  end
  else begin
    let blocks =
      Array.init workers (fun k ->
          let chunk = n / workers and rem = n mod workers in
          let lo = (k * chunk) + min k rem in
          let hi = lo + chunk + if k < rem then 1 else 0 in
          { lock = Mutex.create (); next = lo; limit = hi })
    in
    let worker k =
      let reg = child_registry k in
      let rec loop () =
        match next_task blocks k with
        | Some i ->
          run_task (fun () -> tasks.(i) reg) i k results;
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
  raise_first results;
  let timed =
    Array.map
      (function
        | Some (Ok value, stats) -> { value; stats }
        | Some (Error _, _) | None -> assert false (* raise_first covered it *))
      results
  in
  (* dgmc-analyze: allow nondet-source — wall-clock timing of the batch *)
  let elapsed_s = Unix.gettimeofday () -. started in
  let seq_estimate_s =
    Array.fold_left (fun acc t -> acc +. t.stats.wall_s) 0.0 timed
  in
  (match metrics with
  | None -> ()
  | Some m ->
    Array.iter
      (function Some c -> Metrics.Registry.merge ~into:m c | None -> ())
      children);
  observe_stats metrics timed;
  (timed, { elapsed_s; seq_estimate_s; domains = workers })

let run_batch ?domains tasks =
  run_batch_gen ?domains (Array.map (fun f _reg -> f ()) tasks)

let map ?domains f xs =
  let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
  let timed, _ = run_batch ?domains tasks in
  Array.to_list (Array.map (fun t -> t.value) timed)

let map_timed ?domains f xs =
  let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
  let timed, batch = run_batch ?domains tasks in
  (Array.to_list timed, batch)

let map_registered ?domains ~metrics f xs =
  let tasks = Array.of_list (List.map (fun x reg -> f ?metrics:reg x) xs) in
  let timed, batch = run_batch_gen ?domains ~metrics tasks in
  (Array.to_list timed, batch)
