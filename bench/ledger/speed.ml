(* The host's speed, sampled after every cell of an untraced run.

   On a shared VM the same work runs up to ~20% slower or faster, from
   one second to the next, and the CPU time moves with the wall time,
   so the slowdown is the processor's, not time spent descheduled.
   Scaling each cell's times by a fixed reference kernel's time,
   measured just before and after the cell, takes most of that noise
   out while keeping every change to the library's speed: the kernel is
   the ledger's own code and calls nothing in the library.  Sampling
   after every cell tracked the host better than sampling between
   rounds, whatever the window the round samples were averaged over.

   The kernel allocates the way the simulator does: Dijkstra with a
   persistent [Set] as priority queue, tuples and boxed floats, over a
   fixed random graph.  Of the kernels tried (this one, an
   allocation-free Dijkstra, a pointer chase through 32 MB), it tracked
   the workloads' drift best. *)

module Q = Set.Make (struct
  type t = float * int

  let compare (a, i) (b, j) =
    match Float.compare a b with 0 -> Int.compare i j | c -> c
end)

let nodes = 2000

let degree = 6

let graph =
  let st = Random.State.make [| 42 |] in
  Array.init nodes (fun i ->
      Array.init degree (fun _ ->
          ((i + 1 + Random.State.int st (nodes - 1)) mod nodes, 1.0 +. Random.State.float st 9.0)))

let dijkstra src =
  let dist = Array.make nodes infinity in
  let settled = Hashtbl.create 64 in
  dist.(src) <- 0.0;
  let q = ref (Q.singleton (0.0, src)) in
  while not (Q.is_empty !q) do
    let ((d, u) as top) = Q.min_elt !q in
    q := Q.remove top !q;
    if not (Hashtbl.mem settled u) then begin
      Hashtbl.replace settled u ();
      Array.iter
        (fun (v, w) ->
          let nd = d +. w in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            q := Q.add (nd, v) !q
          end)
        graph.(u)
    end
  done;
  Array.fold_left ( +. ) 0.0 dist

(* The kernel's seconds on the host the benchmark was calibrated on
   (Intel Xeon @ 2.10 GHz, OCaml 5.1.1), at its usual speed. *)
let nominal_s = 0.0140

(* One sample: the kernel's wall seconds. *)
let sample () =
  let t0 = Span.now () in
  let s = ref 0.0 in
  for k = 0 to 7 do
    s := !s +. dijkstra (k * 97)
  done;
  ignore (Sys.opaque_identity !s);
  Span.now () -. t0

(* What seconds measured between two samples would have been on the
   calibration host: nominal over the samples' mean. *)
let factor ~before ~after = nominal_s /. ((before +. after) /. 2.0)
