(* Tests for the discrete-event simulation engine (lib/sim). *)

open Sim

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Heap *)

let heap_of ~cmp xs =
  let h = Heap.create ~cmp in
  List.iter (Heap.add h) xs;
  h

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  check Alcotest.(option int) "peek" None (Heap.peek h);
  check Alcotest.(option int) "pop" None (Heap.pop h)

let test_heap_ordering () =
  let h = heap_of ~cmp:compare [ 5; 3; 8; 1; 9; 2 ] in
  check Alcotest.(option int) "peek min" (Some 1) (Heap.peek h);
  let drained = List.init 6 (fun _ -> Option.get (Heap.pop h)) in
  check Alcotest.(list int) "sorted drain" [ 1; 2; 3; 5; 8; 9 ] drained;
  check Alcotest.(option int) "drained" None (Heap.pop h)

let test_heap_duplicates () =
  let h = heap_of ~cmp:compare [ 2; 2; 1; 1; 3 ] in
  let drained = List.init 5 (fun _ -> Option.get (Heap.pop h)) in
  check Alcotest.(list int) "duplicates kept" [ 1; 1; 2; 2; 3 ] drained

let test_heap_custom_order () =
  (* Max-heap via inverted comparison. *)
  let h = heap_of ~cmp:(fun a b -> compare b a) [ 4; 7; 1 ] in
  check Alcotest.(option int) "max first" (Some 7) (Heap.pop h)

let test_heap_random_sort () =
  let rng = Rng.create 99 in
  for _ = 1 to 20 do
    let size = 1 + Rng.int rng 200 in
    let values = List.init size (fun _ -> Rng.int rng 1000) in
    let h = heap_of ~cmp:compare values in
    let drained = List.init size (fun _ -> Option.get (Heap.pop h)) in
    check Alcotest.(list int) "heapsort equals List.sort"
      (List.sort compare values) drained
  done

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.schedule q ~time:3.0 "c");
  ignore (Event_queue.schedule q ~time:1.0 "a");
  ignore (Event_queue.schedule q ~time:2.0 "b");
  let pop () = Option.get (Event_queue.pop q) in
  check Alcotest.(pair (float 0.0) string) "first" (1.0, "a") (pop ());
  check Alcotest.(pair (float 0.0) string) "second" (2.0, "b") (pop ());
  check Alcotest.(pair (float 0.0) string) "third" (3.0, "c") (pop ())

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  ignore (Event_queue.schedule q ~time:1.0 "first");
  ignore (Event_queue.schedule q ~time:1.0 "second");
  ignore (Event_queue.schedule q ~time:1.0 "third");
  let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  check Alcotest.(list string) "FIFO among equal times"
    [ "first"; "second"; "third" ] order

(* Reference for [Event_queue.length]: a mirror list of every scheduled
   entry in (time, insertion) order, popped in step with the queue,
   counted by filtering for entries not cancelled — the original O(n)
   definition of [length]. *)
type 'a mirrored = {
  q : 'a Event_queue.t;
  mutable mirror : (float * int * Event_queue.handle) list;
  mutable seq : int;
}

let mirrored () = { q = Event_queue.create (); mirror = []; seq = 0 }

let by_time_then_seq (t1, s1, _) (t2, s2, _) =
  match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c

let m_schedule m ~time x =
  let h = Event_queue.schedule m.q ~time x in
  m.mirror <- List.merge by_time_then_seq m.mirror [ (time, m.seq, h) ];
  m.seq <- m.seq + 1;
  h

let m_pop m =
  let rec drop_cancelled = function
    | (_, _, h) :: rest when Event_queue.is_cancelled h -> drop_cancelled rest
    | _ :: rest -> rest
    | [] -> []
  in
  m.mirror <- drop_cancelled m.mirror;
  Event_queue.pop m.q

let check_length what expected m =
  let reference =
    List.length
      (List.filter (fun (_, _, h) -> not (Event_queue.is_cancelled h)) m.mirror)
  in
  check Alcotest.int (what ^ " (reference)") expected reference;
  check Alcotest.int what reference (Event_queue.length m.q)

let test_queue_cancellation () =
  let m = mirrored () in
  ignore (m_schedule m ~time:1.0 "keep1");
  let h = m_schedule m ~time:2.0 "cancelled" in
  ignore (m_schedule m ~time:3.0 "keep2");
  Event_queue.cancel h;
  check Alcotest.bool "is_cancelled" true (Event_queue.is_cancelled h);
  check_length "length excludes cancelled" 2 m;
  let first = m_schedule m ~time:0.5 "first" in
  check Alcotest.(option (pair (float 0.0) string)) "earliest fires"
    (Some (0.5, "first")) (m_pop m);
  Event_queue.cancel first;
  check_length "cancel after firing leaves length" 2 m;
  let order = List.init 2 (fun _ -> snd (Option.get (m_pop m))) in
  check Alcotest.(list string) "cancelled skipped" [ "keep1"; "keep2" ] order;
  check_length "drained" 0 m

let test_queue_cancel_idempotent () =
  let m = mirrored () in
  let h = m_schedule m ~time:1.0 () in
  ignore (m_schedule m ~time:2.0 ());
  Event_queue.cancel h;
  Event_queue.cancel h;
  check_length "second cancel leaves length" 1 m;
  check Alcotest.(option (pair (float 0.0) unit)) "live entry" (Some (2.0, ()))
    (m_pop m);
  check Alcotest.(option (pair (float 0.0) unit)) "empty" None (m_pop m);
  check_length "empty" 0 m

let test_queue_peek_time () =
  let q = Event_queue.create () in
  check Alcotest.(option (float 0.0)) "empty peek" None (Event_queue.peek_time q);
  let h = Event_queue.schedule q ~time:1.0 () in
  ignore (Event_queue.schedule q ~time:2.0 ());
  Event_queue.cancel h;
  check Alcotest.(option (float 0.0)) "peek skips cancelled" (Some 2.0)
    (Event_queue.peek_time q)

let test_queue_rejects_nan () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan time"
    (Invalid_argument "Event_queue.schedule: non-finite time") (fun () ->
      ignore (Event_queue.schedule q ~time:Float.nan ()))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_runs_in_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now eng) :: !log in
  ignore (Engine.schedule eng ~delay:2.0 (note "b"));
  ignore (Engine.schedule eng ~delay:1.0 (note "a"));
  ignore (Engine.schedule eng ~delay:3.0 (note "c"));
  Engine.run eng;
  check
    Alcotest.(list (pair string (float 0.0)))
    "execution order and times"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log)

let test_engine_schedule_during_run () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule eng ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule eng ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Engine.run eng;
  check Alcotest.(list string) "nested scheduling" [ "outer"; "inner" ]
    (List.rev !log);
  check Alcotest.(float 0.0) "clock at last event" 1.5 (Engine.now eng)

let test_engine_zero_delay () =
  let eng = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.schedule eng ~delay:0.0 (fun () -> incr hits));
  Engine.run eng;
  check Alcotest.int "zero-delay runs" 1 !hits;
  check Alcotest.(float 0.0) "clock unchanged" 0.0 (Engine.now eng)

let test_engine_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  List.iter
    (fun d -> ignore (Engine.schedule eng ~delay:d (fun () -> incr hits)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.run ~until:2.5 eng;
  check Alcotest.int "only events before the horizon" 2 !hits;
  check Alcotest.(float 0.0) "clock parked at horizon" 2.5 (Engine.now eng);
  check Alcotest.int "later events still pending" 2 (Engine.pending eng);
  Engine.run eng;
  check Alcotest.int "rest run afterwards" 4 !hits

let test_engine_until_boundary () =
  (* An event scheduled exactly at the horizon still runs (only events
     strictly beyond it wait). *)
  let eng = Engine.create () in
  let hits = ref [] in
  List.iter
    (fun d -> ignore (Engine.schedule eng ~delay:d (fun () -> hits := d :: !hits)))
    [ 1.0; 2.0; 3.0 ];
  Engine.run ~until:2.0 eng;
  check Alcotest.(list (float 0.0)) "boundary inclusive" [ 1.0; 2.0 ]
    (List.rev !hits)

let test_engine_max_events () =
  let eng = Engine.create () in
  let hits = ref 0 in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~delay:(float_of_int i) (fun () -> incr hits))
  done;
  Engine.run ~max_events:3 eng;
  check Alcotest.int "bounded" 3 !hits

let test_engine_cancel () =
  let eng = Engine.create () in
  let hits = ref 0 in
  let h = Engine.schedule eng ~delay:1.0 (fun () -> incr hits) in
  Engine.cancel h;
  Engine.run eng;
  check Alcotest.int "cancelled action skipped" 0 !hits

let test_engine_step () =
  let eng = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> incr hits));
  check Alcotest.bool "step executes" true (Engine.step eng);
  check Alcotest.bool "no more" false (Engine.step eng);
  check Alcotest.int "one hit" 1 !hits

let test_engine_rejects_negative_delay () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: delay must be finite and non-negative")
    (fun () -> ignore (Engine.schedule eng ~delay:(-1.0) (fun () -> ())))

let test_engine_schedule_at_past () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:2.0 (fun () -> ()));
  Engine.run eng;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      ignore (Engine.schedule_at eng ~time:1.0 (fun () -> ())))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  check Alcotest.(list int) "same seed, same stream" (seq a) (seq b)

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000000) in
  check Alcotest.bool "different seeds diverge" true (seq a <> seq b)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    if x < 0 || x >= 10 then Alcotest.failf "out of bounds: %d" x
  done

let test_rng_float_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.float r 2.5 in
    if x < 0.0 || x >= 2.5 then Alcotest.failf "out of bounds: %f" x
  done

let test_rng_range () =
  let r = Rng.create 3 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let x = Rng.range r 3 7 in
    if x < 3 || x > 7 then Alcotest.failf "range violation: %d" x;
    seen.(x - 3) <- true
  done;
  check Alcotest.bool "all values hit" true (Array.for_all (fun b -> b) seen)

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let a = List.init 10 (fun _ -> Rng.int parent 1000000) in
  let b = List.init 10 (fun _ -> Rng.int child 1000000) in
  check Alcotest.bool "split streams differ" true (a <> b)

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 4.0) > 0.2 then
    Alcotest.failf "exponential mean off: %f" mean

let test_rng_sample_distinct () =
  let r = Rng.create 13 in
  let xs = List.init 50 (fun i -> i) in
  for _ = 1 to 50 do
    let s = Rng.sample r 10 xs in
    check Alcotest.int "sample size" 10 (List.length s);
    check Alcotest.int "distinct" 10 (List.length (List.sort_uniq compare s));
    List.iter (fun x -> check Alcotest.bool "from population" true (List.mem x xs)) s
  done

let test_rng_sample_all () =
  let r = Rng.create 13 in
  let xs = [ 1; 2; 3 ] in
  check Alcotest.(list int) "k >= len returns all" xs (Rng.sample r 5 xs)

let test_rng_pick_singleton () =
  let r = Rng.create 19 in
  check Alcotest.int "singleton" 42 (Rng.pick r [ 42 ])

let test_rng_invalid_args () =
  let r = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "pick []" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick r []));
  Alcotest.check_raises "range inverted" (Invalid_argument "Rng.range: lo > hi")
    (fun () -> ignore (Rng.range r 5 3))

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_records () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~category:"a" "one";
  Trace.record t ~time:2.0 ~category:"b" "two";
  Trace.record t ~time:3.0 ~category:"a" "three";
  check Alcotest.int "count" 3 (Trace.count t);
  check Alcotest.int "by category" 2 (Trace.count_category t "a");
  let entries = Trace.entries t in
  check Alcotest.(list string) "order preserved" [ "one"; "two"; "three" ]
    (List.map (fun (e : Trace.entry) -> Trace.message e.event) entries);
  check
    Alcotest.(list int)
    "ids are monotonic from zero" [ 0; 1; 2 ]
    (List.map (fun (e : Trace.entry) -> e.id) entries)

let test_trace_disabled () =
  Trace.record Trace.disabled ~time:1.0 ~category:"x" "dropped";
  check Alcotest.int "disabled drops" 0 (Trace.count Trace.disabled);
  check Alcotest.bool "not enabled" false (Trace.enabled Trace.disabled)

let test_trace_recordf_lazy () =
  (* The formatted message must not be built when tracing is off. *)
  let expensive_calls = ref 0 in
  let expensive () =
    incr expensive_calls;
    "value"
  in
  Trace.recordf Trace.disabled ~time:0.0 ~category:"x" "%s" (expensive ());
  (* The argument is evaluated by OCaml before the call — this test
     documents that only the formatting is skipped, and the count stays
     zero in the retained log. *)
  check Alcotest.int "nothing retained" 0 (Trace.count Trace.disabled);
  check Alcotest.int "argument evaluated once" 1 !expensive_calls

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "empty heap" `Quick test_heap_empty;
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "custom order" `Quick test_heap_custom_order;
          Alcotest.test_case "random heapsort" `Quick test_heap_random_sort;
        ] );
      ( "event-queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "cancellation" `Quick test_queue_cancellation;
          Alcotest.test_case "cancel idempotent" `Quick test_queue_cancel_idempotent;
          Alcotest.test_case "peek_time" `Quick test_queue_peek_time;
          Alcotest.test_case "rejects nan" `Quick test_queue_rejects_nan;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "schedule during run" `Quick
            test_engine_schedule_during_run;
          Alcotest.test_case "zero delay" `Quick test_engine_zero_delay;
          Alcotest.test_case "run ~until" `Quick test_engine_until;
          Alcotest.test_case "until boundary inclusive" `Quick
            test_engine_until_boundary;
          Alcotest.test_case "run ~max_events" `Quick test_engine_max_events;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "rejects negative delay" `Quick
            test_engine_rejects_negative_delay;
          Alcotest.test_case "schedule_at in the past" `Quick
            test_engine_schedule_at_past;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "range" `Quick test_rng_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "sample all" `Quick test_rng_sample_all;
          Alcotest.test_case "pick singleton" `Quick test_rng_pick_singleton;
          Alcotest.test_case "invalid arguments" `Quick test_rng_invalid_args;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records" `Quick test_trace_records;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "recordf" `Quick test_trace_recordf_lazy;
        ] );
    ]
