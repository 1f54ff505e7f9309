(* Tests for the discrete-event simulation engine (lib/sim). *)

open Sim

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* The calendar: the engine's heap order and its queue semantics,
   through the Engine API. *)

(* Schedule one action per time, each logging its tag and the clock;
   run; return the log in execution order. *)
let run_log eng tagged =
  let log = ref [] in
  List.iter
    (fun (time, tag) ->
      ignore
        (Engine.schedule_at eng ~time (fun () ->
             log := (Engine.now eng, tag) :: !log)))
    tagged;
  Engine.run eng;
  List.rev !log

let timed = Alcotest.(list (pair (float 0.0) string))

let test_heap_empty () =
  let eng = Engine.create () in
  Engine.run eng;
  check Alcotest.int "pending" 0 (Engine.pending eng);
  check Alcotest.int "executed" 0 (Engine.events_executed eng);
  check Alcotest.(float 0.0) "clock" 0.0 (Engine.now eng)

let test_heap_ordering () =
  let times = [ 5.0; 3.0; 8.0; 1.0; 9.0; 2.0 ] in
  let log = run_log (Engine.create ()) (List.map (fun t -> (t, "")) times) in
  check Alcotest.(list (float 0.0)) "sorted drain"
    [ 1.0; 2.0; 3.0; 5.0; 8.0; 9.0 ] (List.map fst log)

let test_heap_duplicates () =
  let log =
    run_log (Engine.create ())
      [ (2.0, "a"); (2.0, "b"); (1.0, "c"); (1.0, "d"); (3.0, "e") ]
  in
  check timed "duplicates kept, FIFO among them"
    [ (1.0, "c"); (1.0, "d"); (2.0, "a"); (2.0, "b"); (3.0, "e") ]
    log

(* Random times with repeats, posted with a liveness check and retired
   at random before the run and from inside it, as an owner calls off
   its timers.  A mirror tracks every entry's state: the execution
   order must be the stable sort by time of the entries never retired,
   and [pending] must equal the mirror's live count after every
   event. *)
type mirror = Live | Fired | Retired

let test_heap_random_sort () =
  let rng = Rng.create 99 in
  for _ = 1 to 40 do
    let eng = Engine.create () in
    let size = 1 + Rng.int rng 200 in
    let times = Array.init size (fun _ -> float_of_int (Rng.int rng 20)) in
    let state = Array.make size Live in
    let live () =
      Array.fold_left (fun n s -> if s = Live then n + 1 else n) 0 state
    in
    let order = ref [] in
    let retire_random () =
      let j = Rng.int rng size in
      if state.(j) = Live then begin
        state.(j) <- Retired;
        Engine.retire eng
      end
    in
    let fire i =
      if state.(i) <> Live then Alcotest.failf "entry %d ran, but not live" i;
      check Alcotest.(float 0.0) "clock at the entry's time" times.(i)
        (Engine.now eng);
      state.(i) <- Fired;
      order := i :: !order;
      if Rng.int rng 4 = 0 then retire_random ()
    in
    let cb = Engine.callback ~live:(fun i -> state.(i) = Live) fire in
    Array.iteri (fun i time -> Engine.post_at eng ~time cb i) times;
    for _ = 1 to size / 4 do
      retire_random ()
    done;
    check Alcotest.int "pending before the run" (live ()) (Engine.pending eng);
    Engine.set_probe eng (fun () ->
        check Alcotest.int "pending after an event" (live ())
          (Engine.pending eng));
    Engine.run eng;
    check Alcotest.int "drained" 0 (Engine.pending eng);
    let fired =
      List.filter (fun i -> state.(i) = Fired) (List.init size Fun.id)
    in
    check Alcotest.(list int) "stable sort by time of the unretired"
      (List.stable_sort (fun i j -> Float.compare times.(i) times.(j)) fired)
      (List.rev !order)
  done

(* The calendar's lanes against the order they must keep: posts and
   scheduled actions at delays drawn from six fixed values (more than
   the engine has lanes, so entries overflow to the heap and empty lanes
   are re-keyed), mixed with one-off delays and with [post_at] and
   [schedule_at] on the same quarter-unit grid, so lane heads tie with
   the heap root and with each other.  Entries are placed from inside
   running callbacks, posts are retired at random, and the calendar is
   drained in [run ~max_events] slices.  Entry [i] is the [i]th placed,
   so its insertion number is [i]: the execution order must be the
   stable sort by time of the entries that ran, and [pending] and
   [events_executed] must be exact after every event and every slice. *)
let test_lanes_keep_heap_order () =
  let rng = Rng.create 61 in
  let fixed = [| 0.0; 0.25; 0.5; 1.0; 1.5; 2.25 |] in
  let cap = 1500 in
  for _ = 1 to 30 do
    let eng = Engine.create () in
    let at = Array.make cap 0.0
    and state = Array.make cap Live
    and retirable = Array.make cap false in
    let placed = ref 0 and fired = ref 0 and retired = ref 0 in
    let order = ref [] in
    let live () = !placed - !fired - !retired in
    let run = ref ignore in
    let cb =
      Engine.callback ~live:(fun i -> state.(i) = Live) (fun i -> !run i)
    in
    let place () =
      if !placed < cap then begin
        let i = !placed in
        incr placed;
        let kind = Rng.int rng 10 in
        let d =
          if kind = 6 || kind = 7 then Rng.float rng 2.0
          else fixed.(Rng.int rng (Array.length fixed))
        in
        at.(i) <- Engine.now eng +. d;
        retirable.(i) <- kind <= 3 || kind = 6 || kind = 8;
        let action () = !run i in
        match kind with
        | 0 | 1 | 2 | 3 | 6 -> Engine.post eng ~delay:d cb i
        | 4 | 5 | 7 -> Engine.schedule eng ~delay:d action
        | 8 -> Engine.post_at eng ~time:at.(i) cb i
        | _ -> Engine.schedule_at eng ~time:at.(i) action
      end
    in
    let retire_random () =
      let j = Rng.int rng (max 1 !placed) in
      if j < !placed && state.(j) = Live && retirable.(j) then begin
        state.(j) <- Retired;
        incr retired;
        Engine.retire eng
      end
    in
    (run :=
       fun i ->
         if state.(i) <> Live then Alcotest.failf "entry %d ran, but not live" i;
         if not (Float.equal at.(i) (Engine.now eng)) then
           Alcotest.failf "entry %d ran off its time" i;
         state.(i) <- Fired;
         incr fired;
         order := i :: !order;
         for _ = 1 to Rng.int rng 4 do
           place ()
         done;
         if Rng.int rng 3 = 0 then retire_random ());
    for _ = 1 to 1 + Rng.int rng 100 do
      place ()
    done;
    let exact where =
      if Engine.pending eng <> live () || Engine.events_executed eng <> !fired
      then
        Alcotest.failf "%s: pending %d, executed %d; expected %d, %d" where
          (Engine.pending eng) (Engine.events_executed eng) (live ()) !fired
    in
    Engine.set_probe eng (fun () -> exact "after an event");
    while Engine.pending eng > 0 do
      let before = !fired and budget = 1 + Rng.int rng 8 in
      Engine.run ~max_events:budget eng;
      exact "after a slice";
      if live () > 0 then
        check Alcotest.int "a slice runs its budget" budget (!fired - before)
    done;
    let ran =
      List.filter (fun i -> state.(i) = Fired) (List.init !placed Fun.id)
    in
    check Alcotest.(list int) "stable sort by time of the entries that ran"
      (List.stable_sort (fun i j -> Float.compare at.(i) at.(j)) ran)
      (List.rev !order)
  done

(* An owner's timers, as the engine's users keep them: entry [i] is
   posted with token [i] and is live while [live.(i)] holds; [stop]
   calls one off, retiring it only if it has neither run nor been
   stopped. *)
type timers = {
  live : bool array;
  cb : Engine.callback;
  stop : int -> unit;
}

let timers eng n f =
  let live = Array.make n true in
  let cb =
    Engine.callback ~live:(fun i -> live.(i)) (fun i ->
        live.(i) <- false;
        f i)
  in
  let stop i =
    if live.(i) then begin
      live.(i) <- false;
      Engine.retire eng
    end
  in
  { live; cb; stop }

let test_queue_time_order () =
  check timed "time order"
    [ (1.0, "a"); (2.0, "b"); (3.0, "c") ]
    (run_log (Engine.create ()) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ])

let test_queue_fifo_ties () =
  check timed "FIFO among equal times"
    [ (1.0, "first"); (1.0, "second"); (1.0, "third") ]
    (run_log (Engine.create ())
       [ (1.0, "first"); (1.0, "second"); (1.0, "third") ])

let test_queue_cancellation () =
  let eng = Engine.create () in
  let log = ref [] in
  let tags = [| "keep1"; "retired"; "keep2"; "first" |] in
  let ts = timers eng 4 (fun i -> log := tags.(i) :: !log) in
  Engine.post_at eng ~time:1.0 ts.cb 0;
  Engine.post_at eng ~time:2.0 ts.cb 1;
  Engine.post_at eng ~time:3.0 ts.cb 2;
  ts.stop 1;
  check Alcotest.int "pending excludes retired" 2 (Engine.pending eng);
  Engine.post_at eng ~time:0.5 ts.cb 3;
  Engine.run ~max_events:1 eng;
  check Alcotest.(list string) "earliest fires" [ "first" ] !log;
  ts.stop 3;
  check Alcotest.int "stopping after firing leaves pending" 2
    (Engine.pending eng);
  Engine.run eng;
  check Alcotest.(list string) "retired skipped"
    [ "first"; "keep1"; "keep2" ] (List.rev !log);
  check Alcotest.int "drained" 0 (Engine.pending eng)

(* The owner's stale check makes a second stop a no-op; the engine
   itself refuses a retire with nothing pending. *)
let test_queue_cancel_idempotent () =
  let eng = Engine.create () in
  let ts = timers eng 2 ignore in
  Engine.post_at eng ~time:1.0 ts.cb 0;
  Engine.post_at eng ~time:2.0 ts.cb 1;
  ts.stop 0;
  ts.stop 0;
  check Alcotest.int "second stop leaves pending" 1 (Engine.pending eng);
  Engine.run eng;
  check Alcotest.int "only the live entry ran" 1 (Engine.events_executed eng);
  check Alcotest.int "empty" 0 (Engine.pending eng);
  Alcotest.check_raises "retire with nothing pending"
    (Invalid_argument "Engine.retire: nothing is pending") (fun () ->
      Engine.retire eng)

let test_queue_cancelled_top () =
  (* A retired entry at the top is dropped without running or counting
     against [max_events]: the one event run is the live one behind it. *)
  let eng = Engine.create () in
  let hits = ref [] in
  let ts = timers eng 4 (fun i -> hits := i :: !hits) in
  Engine.post_at eng ~time:1.0 ts.cb 1;
  Engine.post_at eng ~time:2.0 ts.cb 2;
  Engine.post_at eng ~time:3.0 ts.cb 3;
  ts.stop 1;
  Engine.run ~max_events:1 eng;
  check Alcotest.(list int) "live entry behind it fired" [ 2 ] !hits;
  check Alcotest.(float 0.0) "clock at that entry" 2.0 (Engine.now eng);
  check Alcotest.int "one left" 1 (Engine.pending eng)

let test_queue_rejects_nan () =
  let eng = Engine.create () in
  List.iter
    (fun time ->
      Alcotest.check_raises "non-finite time"
        (Invalid_argument "Engine.schedule_at: time must be finite") (fun () ->
          ignore (Engine.schedule_at eng ~time ignore)))
    [ Float.nan; Float.infinity ];
  check Alcotest.int "nothing scheduled" 0 (Engine.pending eng)

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
  let ts = timers eng 1 (fun _ -> incr hits) in
  Engine.post eng ~delay:1.0 ts.cb 0;
  ts.stop 0;
  Engine.run eng;
  check Alcotest.int "retired post skipped" 0 !hits;
  check Alcotest.int "not executed" 0 (Engine.events_executed eng)

(* A stale entry that surfaces leaves no trace: the clock stays, it is
   not counted, it does not use up [max_events] and the probe does not
   see it, both alone and ahead of a live entry. *)
let test_stale_entry_leaves_no_trace () =
  let eng = Engine.create () in
  let probed = ref 0 and ran = ref [] in
  Engine.set_probe eng (fun () -> incr probed);
  let ts = timers eng 3 (fun i -> ran := i :: !ran) in
  Engine.post eng ~delay:1.0 ts.cb 0;
  ts.stop 0;
  Engine.run eng;
  check Alcotest.(float 0.0) "clock unmoved" 0.0 (Engine.now eng);
  check Alcotest.int "nothing executed" 0 (Engine.events_executed eng);
  check Alcotest.int "probe unrun" 0 !probed;
  Engine.post eng ~delay:1.0 ts.cb 1;
  Engine.post eng ~delay:2.0 ts.cb 2;
  ts.stop 1;
  Engine.run ~max_events:1 eng;
  check Alcotest.(list int) "the budget's one event is the live one" [ 2 ]
    !ran;
  check Alcotest.(float 0.0) "clock at the live entry" 2.0 (Engine.now eng);
  check Alcotest.int "one executed" 1 (Engine.events_executed eng);
  check Alcotest.int "probed once" 1 !probed;
  check Alcotest.int "drained" 0 (Engine.pending eng)

let test_engine_rejects_negative_delay () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: delay must be finite and non-negative")
    (fun () -> ignore (Engine.schedule eng ~delay:(-1.0) (fun () -> ())))

let test_engine_delay_overflow () =
  (* A finite delay whose sum with the clock overflows to infinity.  The
     clock must be large enough for the sum to round up past
     [max_float]. *)
  let eng = Engine.create () in
  ignore (Engine.schedule_at eng ~time:1e300 ignore);
  Engine.run eng;
  Alcotest.check_raises "max_float delay"
    (Invalid_argument "Engine.schedule: now + delay overflows to infinity")
    (fun () -> ignore (Engine.schedule eng ~delay:Float.max_float ignore));
  check Alcotest.int "nothing scheduled" 0 (Engine.pending eng)

let test_engine_schedule_at_past () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:2.0 (fun () -> ()));
  Engine.run eng;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      ignore (Engine.schedule_at eng ~time:1.0 (fun () -> ())))

(* A post places its time unboxed in the calendar and allocates nothing
   once the arrays have grown.  The delays are computed in the loop, as
   a transport's are: where [Engine.post] is inlined into its caller
   the delay stays unboxed, and in dune's dev profile it is boxed at the
   call, two words. *)
let test_post_allocates_nothing () =
  let eng = Engine.create () in
  let sum = ref 0 in
  let cb = Engine.callback (fun arg -> sum := !sum + arg) in
  let posts = 1000 in
  let post_all () =
    for i = 1 to posts do
      Engine.post eng ~delay:(float_of_int (i land 7)) cb i
    done
  in
  (* Grow the arrays to the depth measured below. *)
  post_all ();
  Engine.run eng;
  let w = Alloc.words_allocated post_all /. float_of_int posts in
  let limit = if Alloc.cross_module_inlining then 0.0 else 2.0 in
  if w > limit then
    (* dgmc-analyze: allow float-format — test failure message *)
    Alcotest.failf "Engine.post allocated %.2f words per post (limit %.0f)" w
      limit;
  check Alcotest.int "pending counts the posts" posts (Engine.pending eng);
  Engine.run eng;
  check Alcotest.int "every post ran with its argument"
    (2 * posts * (posts + 1) / 2)
    !sum

(* Posts at one repeated delay go to one lane of the calendar: once it
   has grown, neither the posts nor the run that drains them allocate.
   The engine keeps its clock unboxed and boxes it only when [now] is
   asked, so moving the clock to the lane's time at the first entry
   allocates nothing either: the drain measured is the whole run.  (A
   clock kept boxed read 2 words here, that first entry's box.) *)
let test_lane_allocates_nothing () =
  let eng = Engine.create () in
  let sum = ref 0 in
  let cb = Engine.callback (fun arg -> sum := !sum + arg) in
  let posts = 1000 in
  let delay = ref 1.5 in
  let post_all () =
    for i = 1 to posts do
      Engine.post eng ~delay:!delay cb i
    done
  in
  let drain () =
    post_all ();
    Engine.post eng ~delay:!delay cb 0;
    Alloc.words_allocated (fun () -> Engine.run eng)
  in
  (* Grow the store to the depth measured below. *)
  ignore (drain ());
  let w = Alloc.words_allocated post_all /. float_of_int posts in
  let limit = if Alloc.cross_module_inlining then 0.0 else 2.0 in
  if w > limit then
    (* dgmc-analyze: allow float-format — test failure message *)
    Alcotest.failf
      "Engine.post to a lane allocated %.2f words per post (limit %.0f)" w
      limit;
  Engine.run eng;
  let drained = drain () in
  if drained > 0.0 then
    (* dgmc-analyze: allow float-format — test failure message *)
    Alcotest.failf "draining a lane allocated %.0f words" drained;
  check Alcotest.int "every post ran with its argument"
    (3 * posts * (posts + 1) / 2)
    !sum

(* Posts at distinct random delays, as under a jittered fault plan, find
   no lane: all of them go through the heap.  Once the store has grown,
   draining them allocates nothing, as a lane's drain does: sifting
   moves only unboxed keys and the clock is not boxed per time step.
   Where [now] is read, it boxes the clock once per time.  Before the
   clock was kept unboxed this drain read 2 words per event, the box of
   every new time. *)
let test_jittered_drain_allocates_nothing () =
  let eng = Engine.create () in
  let rng = Rng.create 17 in
  let sum = ref 0 in
  let cb = Engine.callback (fun arg -> sum := !sum + arg) in
  let posts = 1000 in
  let drain () =
    for i = 1 to posts do
      Engine.post eng ~delay:(Rng.float rng 10.0) cb i
    done;
    Alloc.words_allocated (fun () -> Engine.run eng)
  in
  (* Grow the store to the depth measured below. *)
  ignore (drain ());
  let drained = drain () in
  if drained > 0.0 then
    (* dgmc-analyze: allow float-format — test failure message *)
    Alcotest.failf "draining %d jittered posts allocated %.0f words" posts
      drained;
  check Alcotest.int "every post ran with its argument"
    (posts * (posts + 1))
    !sum;
  (* Asked three times an event, [now] boxes each new time once: one
     float, 2 words. *)
  let asking = Engine.callback (fun _ ->
      for _ = 1 to 3 do
        ignore (Sys.opaque_identity (Engine.now eng))
      done)
  in
  for i = 1 to posts do
    Engine.post eng ~delay:(Rng.float rng 10.0) asking i
  done;
  let asked = Alloc.words_allocated (fun () -> Engine.run eng) in
  if asked > float_of_int (2 * posts) then
    (* dgmc-analyze: allow float-format — test failure message *)
    Alcotest.failf "now boxed %.0f words over %d times (limit %d)" asked
      posts (2 * posts)

(* Posts and scheduled actions draw on one insertion counter: at equal
   times they run in the order they were placed, whichever the kind. *)
let test_post_schedule_fifo_ties () =
  let eng = Engine.create () in
  let log = ref [] in
  let cb = Engine.callback (fun i -> log := Printf.sprintf "post %d" i :: !log) in
  let schedule tag delay =
    ignore (Engine.schedule eng ~delay (fun () -> log := tag :: !log))
  in
  Engine.post eng ~delay:1.0 cb 1;
  schedule "schedule a" 1.0;
  Engine.post eng ~delay:0.5 cb 0;
  Engine.post eng ~delay:1.0 cb 2;
  schedule "schedule b" 1.0;
  ignore
    (Engine.schedule_at eng ~time:1.0 (fun () ->
         log := "schedule_at c" :: !log;
         (* Placed during the run, at the current time: after every
            entry already due now. *)
         Engine.post eng ~delay:0.0 cb 4;
         schedule "schedule d" 0.0));
  Engine.post eng ~delay:1.0 cb 3;
  Engine.run eng;
  check Alcotest.(list string) "insertion order among equal times"
    [
      "post 0";
      "post 1";
      "schedule a";
      "post 2";
      "schedule b";
      "schedule_at c";
      "post 3";
      "post 4";
      "schedule d";
    ]
    (List.rev !log)

(* A fresh block watched through [weak]: [Some] it while the caller
   holds it. *)
let[@inline never] watched weak =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  payload

(* An owner that calls a timer off drops what the timer would have used
   at once: the calendar holds only the post's [int], so the payload is
   freed while the stale entry is still in the heap. *)
let test_cancel_frees_action () =
  let eng = Engine.create () in
  let weak = Weak.create 1 in
  let payloads = [| Some (watched weak) |] in
  let ts =
    timers eng 1 (fun i -> ignore (Sys.opaque_identity payloads.(i)))
  in
  Engine.post eng ~delay:1.0 ts.cb 0;
  Engine.schedule eng ~delay:2.0 ignore;
  Gc.full_major ();
  check Alcotest.bool "held while armed" true (Weak.check weak 0);
  ts.stop 0;
  payloads.(0) <- None;
  Gc.full_major ();
  check Alcotest.bool "freed at the retire" false (Weak.check weak 0);
  check Alcotest.int "the other entry still pending" 1 (Engine.pending eng);
  Engine.run eng;
  check Alcotest.int "only it ran" 1 (Engine.events_executed eng)

(* Schedule an action holding the only reference to a watched block. *)
let[@inline never] schedule_holding eng weak =
  let payload = watched weak in
  Engine.schedule eng ~delay:1.0 (fun () ->
      ignore (Sys.opaque_identity payload))

(* A scheduled action that has run is freed at once, though the heap
   slot it ran from is not reused: the calendar keeps no closure past
   its entry's turn. *)
let test_run_action_freed () =
  let eng = Engine.create () in
  let weak = Weak.create 1 in
  schedule_holding eng weak;
  Engine.schedule eng ~delay:2.0 ignore;
  Engine.run ~max_events:1 eng;
  Gc.full_major ();
  check Alcotest.bool "freed once run" false (Weak.check weak 0);
  Engine.run eng;
  schedule_holding eng weak;
  Engine.run eng;
  Gc.full_major ();
  check Alcotest.bool "freed once run from the last slot" false
    (Weak.check weak 0);
  (* The engine stays reachable up to here. *)
  check Alcotest.int "drained" 0 (Engine.pending eng)

(* [pending] and [events_executed] count both kinds of entry exactly; a
   retired post is neither counted nor seen by the probe. *)
let test_mixed_counts () =
  let eng = Engine.create () in
  let ts = timers eng 10 ignore in
  for i = 0 to 9 do
    if i mod 2 = 1 then Engine.post eng ~delay:(float_of_int i) ts.cb i
    else Engine.schedule eng ~delay:(float_of_int i) ignore
  done;
  check Alcotest.int "five posts, five actions" 10 (Engine.pending eng);
  (* Retire the posts at 1 and 9: the first surfaces next to live
     actions, the second last. *)
  ts.stop 1;
  ts.stop 9;
  check Alcotest.int "retires leave eight" 8 (Engine.pending eng);
  let probed = ref [] in
  Engine.set_probe eng (fun () ->
      probed := (Engine.now eng, Engine.pending eng) :: !probed);
  Engine.run ~max_events:3 eng;
  check Alcotest.int "three executed" 3 (Engine.events_executed eng);
  check Alcotest.int "five left" 5 (Engine.pending eng);
  Engine.run eng;
  check Alcotest.int "eight executed" 8 (Engine.events_executed eng);
  check Alcotest.int "none left" 0 (Engine.pending eng);
  check
    Alcotest.(list (pair (float 0.0) int))
    "probed after each live entry, never a retired one"
    [
      (0.0, 7); (2.0, 6); (3.0, 5); (4.0, 4); (5.0, 3); (6.0, 2); (7.0, 1);
      (8.0, 0);
    ]
    (List.rev !probed)

(* ------------------------------------------------------------------ *)
(* Slots *)

(* Ids given back are reused last first, fresh ids count up from 0, and
   [live] counts the ids out. *)
let test_slots_reuse_last_first () =
  let ids = Slots.create () in
  let taken = List.init 20 (fun _ -> Slots.take ids) in
  check Alcotest.(list int) "fresh ids count up" (List.init 20 Fun.id) taken;
  List.iter (Slots.give_back ids) [ 3; 17; 8 ];
  check Alcotest.int "three given back" 17 (Slots.live ids);
  check Alcotest.(list int) "reused last first, then fresh" [ 8; 17; 3; 20 ]
    (List.init 4 (fun _ -> Slots.take ids));
  check Alcotest.int "used" 21 (Slots.used ids);
  check Alcotest.int "live" 21 (Slots.live ids)

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
    if x < 0.0 || x >= 2.5 then Alcotest.failf "out of bounds: %.17g" x
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
    Alcotest.failf "exponential mean off: %.17g" mean

let test_rng_sample_distinct () =
  let r = Rng.create 13 in
  let xs = List.init 50 (fun i -> i) in
  for _ = 1 to 50 do
    let s = Rng.sample r 10 xs in
    check Alcotest.int "sample size" 10 (List.length s);
    check Alcotest.int "distinct" 10 (List.length (List.sort_uniq Int.compare s));
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

(* The first outputs of every kind of draw, recorded from the
   [mutable state : int64] implementation: a change of the state's
   representation must leave every stream bit for bit as it was.
   Floats are written in hexadecimal, so the comparison is exact. *)
let test_rng_golden_stream () =
  (* [Rng.int r max_int] is the raw draw's top 62 bits. *)
  let first r =
    let i64 = Int64.of_int (Rng.int r max_int) in
    let i = Rng.int r 1_000_000 in
    let f = Rng.float r 1.0 in
    let b = List.init 8 (fun _ -> Rng.bool r) in
    let e = Rng.exponential r ~mean:2.0 in
    (i64, i, f, b, e)
  in
  let expect name (i64, i, f, b, e) r =
    let i64', i', f', b', e' = first r in
    check Alcotest.int64 (name ^ ": int64")
      (Int64.shift_right_logical i64 2) i64';
    check Alcotest.int (name ^ ": int") i i';
    check Alcotest.bool (name ^ ": float") true (Float.equal f f');
    check Alcotest.(list bool) (name ^ ": bool") b b';
    check Alcotest.bool (name ^ ": exponential") true (Float.equal e e')
  in
  expect "create 0"
    ( -2152535657050944081L, 588925, 0x1.b1174620025p-6,
      [ false; true; false; true; false; true; false; true ],
      0x1.6e7292f3b06dbp+1 )
    (Rng.create 0);
  let r42 = Rng.create 42 in
  expect "create 42"
    ( -4767286540954276203L, 723072, 0x1.1d499d5c4c3e6p-2,
      [ false; false; false; true; false; true; false; true ],
      0x1.5bc31c26058bap+0 )
    r42;
  let child = Rng.split r42 in
  expect "split"
    ( -2214858861424239224L, 190936, 0x1.801371d44f618p-3,
      [ false; true; false; false; false; false; true; true ],
      0x1.4e3d339cdf1f5p+1 )
    child;
  expect "create 42 after the split"
    ( -8854191821003330121L, 381239, 0x1.a0a2962a6be18p-3,
      [ true; true; true; false; false; true; true; true ],
      0x1.3b9dbb4ba3e9dp-3 )
    r42;
  expect "derive ~master:1 ~index:3"
    ( 4611819469741994664L, 834806, 0x1.da876b0b4c934p-1,
      [ false; true; true; false; false; false; false; true ],
      0x1.6c7243090e333p-2 )
    (Rng.derive ~master:1 ~index:3)

(* A draw allocates nothing: the state is updated in place, unboxed.
   Where [Rng.float] cannot be inlined into its caller (dune's dev
   profile) its result is boxed at the return, two words. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 5 in
  let draws = 1000 in
  let per_draw label limit f =
    let w = Alloc.words_allocated f /. float_of_int draws in
    if w > limit then
      (* dgmc-analyze: allow float-format — test failure message *)
      Alcotest.failf "Rng.%s allocated %.2f words per draw (limit %.0f)" label
        w limit
  in
  per_draw "int" 0.0 (fun () ->
      let acc = ref 0 in
      for _ = 1 to draws do
        acc := !acc + Rng.int r 1000
      done;
      !acc);
  per_draw "bool" 0.0 (fun () ->
      let acc = ref 0 in
      for _ = 1 to draws do
        if Rng.bool r then incr acc
      done;
      !acc);
  per_draw "float"
    (if Alloc.cross_module_inlining then 0.0 else 2.0)
    (fun () ->
      let acc = ref 0 in
      for _ = 1 to draws do
        if Rng.float r 1.0 < 0.5 then incr acc
      done;
      !acc)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_records () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~category:"a" "one";
  Trace.record t ~time:2.0 ~category:"b" "two";
  Trace.record t ~time:3.0 ~category:"a" "three";
  check Alcotest.int "count" 3 (Trace.count t);
  check Alcotest.int "by category" 2 (Oracle.Trace.count_category t "a");
  let entries = Trace.entries t in
  check Alcotest.(list string) "order preserved" [ "one"; "two"; "three" ]
    (List.map
       (fun (e : Trace.entry) ->
         match e.event with Trace.Note n -> n.message | _ -> "")
       entries);
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
          Alcotest.test_case "random heapsort" `Quick test_heap_random_sort;
          Alcotest.test_case "lanes keep the heap's order" `Quick
            test_lanes_keep_heap_order;
        ] );
      ( "event-queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "cancellation" `Quick test_queue_cancellation;
          Alcotest.test_case "cancel idempotent" `Quick test_queue_cancel_idempotent;
          Alcotest.test_case "cancelled top skipped" `Quick
            test_queue_cancelled_top;
          Alcotest.test_case "rejects nan" `Quick test_queue_rejects_nan;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "schedule during run" `Quick
            test_engine_schedule_during_run;
          Alcotest.test_case "zero delay" `Quick test_engine_zero_delay;
          Alcotest.test_case "run ~max_events" `Quick test_engine_max_events;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "stale entry leaves no trace" `Quick
            test_stale_entry_leaves_no_trace;
          Alcotest.test_case "rejects negative delay" `Quick
            test_engine_rejects_negative_delay;
          Alcotest.test_case "delay overflow rejected" `Quick
            test_engine_delay_overflow;
          Alcotest.test_case "schedule_at in the past" `Quick
            test_engine_schedule_at_past;
          Alcotest.test_case "post allocates nothing" `Quick
            test_post_allocates_nothing;
          Alcotest.test_case "lane posts and drain allocate nothing" `Quick
            test_lane_allocates_nothing;
          Alcotest.test_case "a jittered drain allocates nothing" `Quick
            test_jittered_drain_allocates_nothing;
          Alcotest.test_case "post and schedule share FIFO ties" `Quick
            test_post_schedule_fifo_ties;
          Alcotest.test_case "cancel frees the action before it surfaces"
            `Quick test_cancel_frees_action;
          Alcotest.test_case "a run action is freed at once" `Quick
            test_run_action_freed;
          Alcotest.test_case "pending and events_executed, mixed kinds" `Quick
            test_mixed_counts;
        ] );
      ( "slots",
        [
          Alcotest.test_case "reuse last first" `Quick
            test_slots_reuse_last_first;
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
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records" `Quick test_trace_records;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "recordf" `Quick test_trace_recordf_lazy;
        ] );
    ]
