(* Tests for the statistics and table-rendering library (lib/metrics). *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_mean () =
  check Alcotest.(float 1e-9) "mean" 2.5 (Metrics.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check Alcotest.(float 1e-9) "singleton" 7.0 (Metrics.Stats.mean [ 7.0 ])

let test_stddev () =
  (* Sample of [2, 4, 4, 4, 5, 5, 7, 9]: mean 5, sum of squares 32,
     sample variance 32/7. *)
  let xs = [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  check Alcotest.(float 1e-9) "sample stddev"
    (sqrt (32.0 /. 7.0))
    (Metrics.Stats.summarize xs).stddev;
  check Alcotest.(float 1e-9) "singleton stddev" 0.0
    (Metrics.Stats.summarize [ 3.0 ]).stddev

(* The 95% half-width is the Student-t value for n - 1 degrees of
   freedom times the standard error. *)
let test_t_critical () =
  let t_critical df =
    let s = Metrics.Stats.summarize (List.init (df + 1) float_of_int) in
    s.ci95 *. sqrt (float_of_int (df + 1)) /. s.stddev
  in
  check Alcotest.(float 1e-3) "df=1" 12.706 (t_critical 1);
  check Alcotest.(float 1e-3) "df=9 (10 samples)" 2.262 (t_critical 9);
  check Alcotest.(float 1e-3) "df=30" 2.042 (t_critical 30);
  check Alcotest.(float 1e-3) "asymptote" 1.96 (t_critical 200);
  check Alcotest.(float 0.0) "one sample, no interval" 0.0
    (Metrics.Stats.summarize [ 3.0 ]).ci95

let test_summarize () =
  let s = Metrics.Stats.summarize [ 1.0; 2.0; 3.0 ] in
  check Alcotest.int "n" 3 s.n;
  check Alcotest.(float 1e-9) "mean" 2.0 s.mean;
  check Alcotest.(float 1e-9) "stddev" 1.0 s.stddev;
  (* ci = t(2) * 1 / sqrt 3 = 4.303 / 1.732... *)
  check Alcotest.(float 1e-3) "ci95" (4.303 /. sqrt 3.0) s.ci95

let test_summarize_singleton () =
  let s = Metrics.Stats.summarize [ 5.0 ] in
  check Alcotest.(float 1e-9) "no interval" 0.0 s.ci95

let test_summarize_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Metrics.Stats.summarize []))

let test_summarize_constant_sample () =
  let s = Metrics.Stats.summarize [ 4.0; 4.0; 4.0; 4.0 ] in
  check Alcotest.(float 1e-9) "zero spread" 0.0 s.ci95;
  check Alcotest.(float 1e-9) "mean" 4.0 s.mean

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check Alcotest.(float 1e-9) "p0" 1.0 (Metrics.Stats.percentile xs 0.0);
  check Alcotest.(float 1e-9) "p50" 3.0 (Metrics.Stats.percentile xs 50.0);
  check Alcotest.(float 1e-9) "p100" 5.0 (Metrics.Stats.percentile xs 100.0);
  check Alcotest.(float 1e-9) "p25 interpolates" 2.0 (Metrics.Stats.percentile xs 25.0);
  check Alcotest.(float 1e-9) "p10 interpolates" 1.4 (Metrics.Stats.percentile xs 10.0);
  (* Unsorted input is handled. *)
  check Alcotest.(float 1e-9) "unsorted" 3.0
    (Metrics.Stats.percentile [ 5.0; 1.0; 3.0; 2.0; 4.0 ] 50.0)

let test_percentile_validation () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Metrics.Stats.percentile [ 1.0 ] 101.0))

let test_nearest_rank () =
  let rank = Metrics.Stats.nearest_rank in
  let feq = Alcotest.(float 0.0) in
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check feq "p50 of 1..100" 50.0 (rank xs 0.50);
  check feq "p90 of 1..100" 90.0 (rank xs 0.90);
  check feq "p99 of 1..100" 99.0 (rank xs 0.99);
  check feq "p100 of 1..100" 100.0 (rank xs 1.0);
  check feq "rank rounds up" 2.0 (rank xs 0.011);
  check feq "rank 0 clamps to the minimum" 1.0 (rank xs 0.0);
  check feq "singleton" 7.0 (rank [ 7.0 ] 0.99);
  check feq "singleton p0" 7.0 (rank [ 7.0 ] 0.0);
  check feq "empty" 0.0 (rank [] 0.99)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_counters () =
  let r = Metrics.Registry.create () in
  check Alcotest.bool "fresh registry is empty" true (Oracle.Registry.is_empty r);
  let a = Metrics.Registry.counter r "a" in
  Metrics.Registry.bump a;
  Metrics.Registry.bump ~by:4 a;
  Metrics.Registry.bump (Metrics.Registry.counter r ~switch:3 "a");
  check Alcotest.int "aggregate cell" 5 (Oracle.Registry.counter_value r "a");
  check Alcotest.int "labelled cell is separate" 1
    (Oracle.Registry.counter_value r ~switch:3 "a");
  check Alcotest.int "absent counter reads 0" 0
    (Oracle.Registry.counter_value r "never")

(* Handles count for their owner and sum under their key: three handles
   on one key read as one counter, a handle never bumped leaves no key,
   and a handle of the disabled registry counts alone. *)
let test_counter_handles () =
  let module R = Metrics.Registry in
  let r = R.create () in
  let a = R.counter r ~switch:1 "h" and b = R.counter r ~switch:1 "h" in
  let idle = R.counter r "idle" in
  check Alcotest.bool "creating handles records nothing" true (Oracle.Registry.is_empty r);
  R.bump a;
  R.bump ~by:3 b;
  R.bump (R.counter r ~switch:1 "h");
  check Alcotest.int "a handle reads its own count" 1 (R.count a);
  check Alcotest.int "the key sums its handles" 5
    (Oracle.Registry.counter_value r ~switch:1 "h");
  check
    Alcotest.(list (pair string int))
    "one key per (name, label); no key for an idle handle"
    [ ("h", 5) ]
    (List.map
       (fun ((k : R.key), v) -> (k.name, v))
       (R.snapshot r));
  check Alcotest.int "an idle handle reads 0" 0 (R.count idle);
  let per = R.per_switch R.disabled 3 "p" in
  Array.iter R.bump per;
  R.bump per.(2);
  check Alcotest.int "disabled handles count privately" 4 (R.sum per);
  check Alcotest.bool "the disabled registry stays empty" true
    (Oracle.Registry.is_empty R.disabled);
  let raised =
    Domain.join
      (Domain.spawn (fun () ->
           match R.bump a with
           | () -> false
           | exception Invalid_argument _ -> true))
  in
  check Alcotest.bool "a metered bump from another domain raises" true raised;
  check Alcotest.int "and counts nothing" 1 (R.count a)

let test_snapshot_deterministic () =
  let r = Metrics.Registry.create () in
  List.iter
    (fun (switch, name) ->
      Metrics.Registry.bump (Metrics.Registry.counter r ?switch name))
    [ (Some 2, "z"); (None, "z"); (Some 1, "z"); (None, "a") ];
  let keys =
    List.map
      (fun ((k : Metrics.Registry.key), _) -> (k.name, k.switch))
      (Metrics.Registry.snapshot r)
  in
  check
    Alcotest.(list (pair string (option int)))
    "sorted by name then label (aggregate first)"
    [ ("a", None); ("z", None); ("z", Some 1); ("z", Some 2) ]
    keys

(* ------------------------------------------------------------------ *)
(* Table *)

let test_cell_f_trims () =
  check Alcotest.string "trims zeros" "1.5" (Metrics.Table.cell_f 1.5);
  check Alcotest.string "keeps one decimal" "2.0" (Metrics.Table.cell_f 2.0);
  check Alcotest.string "three decimals kept" "0.125" (Metrics.Table.cell_f 0.125)

let test_cell_ci () =
  check Alcotest.string "format" "3.0 ± 0.5" (Metrics.Table.cell_ci ~mean:3.0 ~ci:0.5)

(* The table [Table.print] writes, without its final newline. *)
let render ?align ~headers rows =
  let out = Oracle.stdout_of (fun () -> Metrics.Table.print ?align ~headers rows) in
  String.sub out 0 (String.length out - 1)

let test_render_layout () =
  let out = render ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "10"; "200" ] ] in
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "header + rule + 2 rows" 4 (List.length lines);
  (* All lines are equally wide. *)
  let widths = List.map String.length lines in
  check Alcotest.bool "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_render_missing_cells () =
  let out = render ~headers:[ "x"; "y"; "z" ] [ [ "1" ] ] in
  check Alcotest.bool "renders" true (String.length out > 0)

let test_render_alignment () =
  let out =
    render
      ~align:[ Metrics.Table.Left; Metrics.Table.Right ]
      ~headers:[ "name"; "val" ]
      [ [ "ab"; "1" ] ]
  in
  let lines = String.split_on_char '\n' out in
  let row = List.nth lines 2 in
  check Alcotest.bool "left-aligned first column" true (row.[0] <> ' ');
  check Alcotest.bool "right-aligned last column" true
    (row.[String.length row - 1] <> ' ')

(* ------------------------------------------------------------------ *)
(* CSV *)

(* The document [Csv.write] leaves in a file. *)
let csv ~headers rows =
  Oracle.with_temp_file (fun path ->
      Metrics.Csv.write ~path ~headers rows;
      Oracle.read_file path)

let test_csv_escape () =
  let field f = csv ~headers:[ f ] [] in
  check Alcotest.string "plain" "abc\n" (field "abc");
  check Alcotest.string "comma" "\"a,b\"\n" (field "a,b");
  check Alcotest.string "quote doubled" "\"a\"\"b\"\n" (field "a\"b");
  check Alcotest.string "newline" "\"a\nb\"\n" (field "a\nb")

let test_csv_render () =
  let out = csv ~headers:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4,5" ] ] in
  check Alcotest.string "document" "x,y\n1,2\n3,\"4,5\"\n" out

let test_csv_write_roundtrip () =
  check Alcotest.string "file content" "a\n1\n2\n"
    (csv ~headers:[ "a" ] [ [ "1" ]; [ "2" ] ])

let test_owner_domain_guard () =
  let r = Metrics.Registry.create () in
  Metrics.Registry.bump (Metrics.Registry.counter r "ok.from.owner");
  (* Mutating from a spawned domain must raise; reading back on the
     owner still works and the foreign write left no trace. *)
  let outcome =
    Domain.join
      (Domain.spawn (fun () ->
           match
             Metrics.Registry.bump (Metrics.Registry.counter r "bad.from.worker")
           with
           | () -> `No_raise
           | exception Invalid_argument _ -> `Raised))
  in
  (match outcome with
  | `Raised -> ()
  | `No_raise -> Alcotest.fail "cross-domain bump did not raise");
  check Alcotest.int "owner counter survives" 1
    (Oracle.Registry.counter_value r "ok.from.owner");
  check Alcotest.int "foreign counter absent" 0
    (Oracle.Registry.counter_value r "bad.from.worker")

let () =
  Alcotest.run "metrics"
    [
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "t critical values" `Quick test_t_critical;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "summarize singleton" `Quick test_summarize_singleton;
          Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
          Alcotest.test_case "constant sample" `Quick test_summarize_constant_sample;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile validation" `Quick
            test_percentile_validation;
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "counter handles" `Quick test_counter_handles;
          Alcotest.test_case "snapshot determinism" `Quick
            test_snapshot_deterministic;
          Alcotest.test_case "owner-domain guard" `Quick
            test_owner_domain_guard;
        ] );
      ( "table",
        [
          Alcotest.test_case "cell_f trimming" `Quick test_cell_f_trims;
          Alcotest.test_case "cell_ci" `Quick test_cell_ci;
          Alcotest.test_case "layout" `Quick test_render_layout;
          Alcotest.test_case "missing cells" `Quick test_render_missing_cells;
          Alcotest.test_case "alignment" `Quick test_render_alignment;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escape;
          Alcotest.test_case "render" `Quick test_csv_render;
          Alcotest.test_case "write roundtrip" `Quick test_csv_write_roundtrip;
        ] );
    ]
