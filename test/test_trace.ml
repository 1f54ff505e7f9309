(* Tests for the structured causal trace (Sim.Trace): JSONL round-trip,
   ring-buffer bounds, causal well-formedness on a
   real protocol run, and the disabled-trace zero-cost guarantee. *)

let check = Alcotest.check

(* One of each payload variant, exercising every field shape the JSONL
   writer has to carry (arrays, strings with quotes, bools, floats). *)
let both = { Sim.Trace.size = 2; nonzero = [| 0; 1; 1; 1 |] }

let sample_events : Sim.Trace.event list =
  [
    Lsa_originated
      {
        switch = 3;
        mc = "mc#1(symmetric)";
        seq = 7;
        ev = "join:both";
        proposal = true;
        stamp = { size = 3; nonzero = [| 0; 1; 2; 2 |] };
      };
    Lsa_forwarded { src = 3; dst = 5; origin = 3; seq = 7; retransmit = true };
    Lsa_delivered { switch = 5; source = 3; origin = 3; seq = 7 };
    Lsa_dropped { src = 3; dst = 5; origin = 3; seq = 7; reason = "fault" };
    Compute_started
      { switch = 5; mc = "mc#1(symmetric)"; trigger = "receive-lsa"; r = both };
    Proposal_made
      { switch = 5; mc = "mc#1(symmetric)"; withdrawn = false; stamp = both };
    Topology_installed
      {
        switch = 5;
        mc = "mc#1(symmetric)";
        r = both;
        e = both;
        c = both;
        members = "{3:both, 5:both}";
        tree = "tree terminals={3, 5} edges=[3-5]";
      };
    Fault_injected { src = 0; dst = 1; fault = "reorder(+0.5)" };
    Crash { switch = 2 };
    Recover { switch = 2 };
    Resync { switch = 2; peer = 4; mc = "mc#1(symmetric)" };
    Note { category = "partition"; message = "partition {0,1} \"heals\"\n" };
  ]

let test_jsonl_roundtrip () =
  let t = Sim.Trace.create () in
  List.iteri
    (fun i ev ->
      let parent = if i = 0 then -1 else i - 1 in
      ignore (Sim.Trace.emit t ~time:(0.125 *. float_of_int i) ~parent ev))
    sample_events;
  match Oracle.Trace.round_trip t with
  | Error e -> Alcotest.failf "read_jsonl failed: %s" e
  | Ok a ->
    check Alcotest.int "emitted" (List.length sample_events) a.a_emitted;
    check Alcotest.int "dropped" (Sim.Trace.dropped t) a.a_dropped;
    check Alcotest.bool "entries identical" true
      (a.a_entries = Sim.Trace.entries t)

let test_jsonl_irregular_times () =
  (* Times that need all 17 digits survive the round trip bit-for-bit. *)
  let t = Sim.Trace.create () in
  List.iter
    (fun time ->
      ignore
        (Sim.Trace.emit t ~time (Note { category = "x"; message = "m" })))
    [ 0.1; 1.0 /. 3.0; 8.5600000000000007e-05; 1e300; 0.0 ];
  match Oracle.Trace.round_trip t with
  | Error e -> Alcotest.failf "read_jsonl failed: %s" e
  | Ok a ->
    List.iter2
      (fun (x : Sim.Trace.entry) (y : Sim.Trace.entry) ->
        if x.time <> y.time then
          Alcotest.failf "time drifted: %h vs %h" x.time y.time)
      (Sim.Trace.entries t) a.a_entries

let test_ring_buffer_cap () =
  let t = Sim.Trace.create ~cap:4 () in
  for i = 0 to 9 do
    ignore
      (Sim.Trace.emit t ~time:(float_of_int i)
         (Note { category = "n"; message = string_of_int i }))
  done;
  check Alcotest.int "retained" 4 (Sim.Trace.count t);
  check Alcotest.int "emitted counts everything" 10 (Oracle.Trace.emitted t);
  check Alcotest.int "dropped" 6 (Sim.Trace.dropped t);
  check Alcotest.(list int) "newest entries, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Sim.Trace.entry) -> e.id) (Sim.Trace.entries t))

(* Causal well-formedness on a real run: every retained entry's parent
   is -1 or an earlier, existing event — LSA floods replay as trees. *)
let test_causal_well_formed () =
  let trace = Sim.Trace.create () in
  let r =
    Experiments.Harness.bursty_run ~trace ~seed:1 ~n:12
      ~config:Dgmc.Config.atm_lan ~members:6 ()
  in
  check Alcotest.bool "run converged" true r.converged;
  let entries = Sim.Trace.entries trace in
  check Alcotest.bool "events captured" true (List.length entries > 50);
  let ids = Hashtbl.create 256 in
  List.iter
    (fun (e : Sim.Trace.entry) ->
      if e.parent >= e.id then
        Alcotest.failf "#%d has parent #%d (not earlier)" e.id e.parent;
      if e.parent >= 0 && not (Hashtbl.mem ids e.parent) then
        Alcotest.failf "#%d has unknown parent #%d" e.id e.parent;
      Hashtbl.replace ids e.id ())
    entries;
  (* The flood tree is real: deliveries hang off forwards/originations. *)
  check Alcotest.bool "some delivery has a parent" true
    (List.exists
       (fun (e : Sim.Trace.entry) ->
         match e.event with
         | Lsa_delivered _ -> e.parent >= 0
         | _ -> false)
       entries)

(* Tracing must never change the simulation it observes. *)
let test_tracing_is_transparent () =
  let untraced =
    Experiments.Harness.bursty_run ~seed:5 ~n:12 ~config:Dgmc.Config.wan
      ~members:6 ()
  in
  let traced =
    Experiments.Harness.bursty_run ~trace:(Sim.Trace.create ()) ~seed:5 ~n:12
      ~config:Dgmc.Config.wan ~members:6 ()
  in
  check Alcotest.bool "identical measurements" true (untraced = traced)

let test_disabled_recordf_zero_alloc () =
  let t = Sim.Trace.disabled in
  (* Warm up so any one-time allocation is out of the measurement, and
     measure what Gc.allocated_bytes itself allocates (it boxes floats),
     so the loop's contribution comes out exact. *)
  Sim.Trace.recordf t ~time:0.0 ~category:"c" "warmup";
  let baseline =
    let a = Gc.allocated_bytes () in
    Gc.allocated_bytes () -. a
  in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to 1000 do
    (* A constant format on a disabled trace must allocate nothing. *)
    Sim.Trace.recordf t ~time:1.0 ~category:"c" "no event here"
  done;
  let allocated = Gc.allocated_bytes () -. a0 -. baseline in
  check Alcotest.(float 0.0) "zero bytes over 1000 disabled records" 0.0
    allocated

(* Flooding's per-copy events go straight into the int columns: once the
   columns have grown, a forward and a delivery with its context set
   and restored allocate nothing.  Same baseline technique as the
   disabled [recordf] test above. *)
let test_emitters_zero_alloc () =
  let copies t n =
    for seq = 1 to n do
      let fid =
        Sim.Trace.forward t ~time:1.0 ~parent:(-1) ~src:1 ~dst:2 ~origin:1
          ~seq ~retransmit:false
      in
      let did =
        Sim.Trace.deliver t ~time:1.0 ~parent:fid ~switch:2 ~source:1
          ~origin:1 ~seq
      in
      let saved = Sim.Trace.set_context t did in
      Sim.Trace.restore_context t saved
    done
  in
  (* 6,000 entries grow the columns to the whole 4,096-entry ring. *)
  let t = Sim.Trace.create ~cap:4096 () in
  copies t 3000;
  let baseline =
    let a = Gc.allocated_bytes () in
    Gc.allocated_bytes () -. a
  in
  let a0 = Gc.allocated_bytes () in
  copies t 1000;
  let allocated = Gc.allocated_bytes () -. a0 -. baseline in
  check Alcotest.(float 0.0) "zero bytes over 1000 copies" 0.0 allocated;
  check Alcotest.int "context restored" (-1) (Sim.Trace.context t);
  let t = Sim.Trace.create () in
  copies t 10;
  check Alcotest.int "entries retained" 20 (Sim.Trace.count t);
  match Sim.Trace.entries t with
  | { event = Lsa_forwarded { seq = 1; _ }; parent = -1; _ }
    :: { id = 1; event = Lsa_delivered { seq = 1; _ }; parent = 0; _ }
    :: _ ->
    ()
  | _ -> Alcotest.fail "the copies do not read back as forward, delivery"

(* A delivery that raises still leaves the context it found. *)
let test_delivery_exception_restores_context () =
  let trace = Sim.Trace.create () in
  let engine = Sim.Engine.create ~trace () in
  let deliver ~switch:_ _ = raise Exit in
  let f =
    Lsr.Flooding.create ~engine ~graph:(Net.Topo_gen.line 3) ~t_hop:1.0
      ~deliver ()
  in
  let outer =
    Sim.Trace.emit trace ~time:0.0 (Note { category = "n"; message = "outer" })
  in
  let saved = Sim.Trace.set_context trace outer in
  Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:0 ~seq:0 ());
  (match Sim.Engine.run engine with
  | () -> Alcotest.fail "the delivery did not raise"
  | exception Exit -> ());
  check Alcotest.int "context restored after the raise" outer
    (Sim.Trace.context trace);
  Sim.Trace.restore_context trace saved;
  check Alcotest.bool "the delivery was traced" true
    (List.exists
       (fun (e : Sim.Trace.entry) ->
         match e.event with Lsa_delivered _ -> true | _ -> false)
       (Sim.Trace.entries trace))

(* Malformed captures: each fails with the physical line of its first
   bad line and the reason. *)
let test_of_jsonl_rejects_garbage () =
  let header = {|{"schema":"dgmc-trace/1","emitted":2,"dropped":0}|} in
  let crash = {|{"id":0,"parent":-1,"t":0,"kind":"crash","switch":1}|} in
  List.iter
    (fun (name, text, want) ->
      match Oracle.Trace.read text with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error msg -> check Alcotest.string name want msg)
    [
      ("empty input", "", "empty trace");
      ( "garbage entry",
        String.concat "\n" [ header; "not json"; "" ],
        "line 2: expected null at offset 0" );
      ( "truncated last line",
        String.concat "\n" [ header; crash; {|{"id":1,"parent":0,"t":0.5,"ki|} ],
        "line 3: unterminated string at offset 30" );
      ( "bad schema",
        {|{"schema":"dgmc-trace/9","emitted":0,"dropped":0}|} ^ "\n",
        {|line 1: unsupported schema "dgmc-trace/9" (want "dgmc-trace/1")|} );
      ( "missing field",
        String.concat "\n"
          [ header; {|{"id":0,"parent":-1,"kind":"crash","switch":1}|}; "" ],
        {|line 2: missing or ill-typed field "t"|} );
      ( "unknown kind",
        String.concat "\n"
          [ header; crash; {|{"id":1,"parent":-1,"t":1,"kind":"teleport"}|}; "" ],
        {|line 3: unknown event kind "teleport"|} );
      ( "non-integer vector element",
        String.concat "\n"
          [
            header;
            {|{"id":0,"parent":-1,"t":0,"kind":"compute-started","switch":0,"mc":"m","trigger":"x","r":[0,1.5]}|};
            "";
          ],
        {|line 2: non-integer in vector "r"|} );
      ( "bad line after blank lines",
        String.concat "\n" [ header; ""; ""; "{bad"; "" ],
        {|line 4: expected '"' at offset 1|} );
    ]

let () =
  Alcotest.run "trace"
    [
      ( "jsonl",
        [
          Alcotest.test_case "round-trip identity" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "float times exact" `Quick
            test_jsonl_irregular_times;
          Alcotest.test_case "rejects garbage" `Quick
            test_of_jsonl_rejects_garbage;
        ] );
      ( "buffer",
        [
          Alcotest.test_case "ring cap and dropped" `Quick test_ring_buffer_cap;
        ] );
      ( "causality",
        [
          Alcotest.test_case "parents are earlier and exist" `Quick
            test_causal_well_formed;
          Alcotest.test_case "tracing is transparent" `Quick
            test_tracing_is_transparent;
        ] );
      ( "cost",
        [
          Alcotest.test_case "disabled recordf allocates nothing" `Quick
            test_disabled_recordf_zero_alloc;
          Alcotest.test_case "flood emitters allocate nothing" `Quick
            test_emitters_zero_alloc;
          Alcotest.test_case "a raising delivery restores the context"
            `Quick test_delivery_exception_restores_context;
        ] );
    ]
