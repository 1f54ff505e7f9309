(* The parallel runner's contract: scheduling must be invisible.  Every
   figure table, fuzz counter and repro line must be identical whether a
   batch runs on 1, 2 or 4 domains — cells derive their randomness from
   their own identity, and the pool collects results by task index.
   These tests run the real workloads (Experiment 1 quick mode, a
   25-seed fuzz batch) at several domain counts and demand equality down
   to the bit. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pool basics *)

let test_pool_map_is_list_map () =
  let xs = List.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      check
        Alcotest.(list int)
        (Printf.sprintf "map on %d domains" domains)
        (List.map f xs)
        (Runner.Pool.map ~domains f xs))
    [ 1; 2; 4; 8 ]

let test_pool_handles_more_domains_than_tasks () =
  check
    Alcotest.(list int)
    "2 tasks, 8 domains" [ 10; 20 ]
    (Runner.Pool.map ~domains:8 (fun x -> 10 * x) [ 1; 2 ])

let test_pool_empty_batch () =
  check Alcotest.(list int) "empty" [] (Runner.Pool.map ~domains:4 (fun x -> x) [])

exception Boom of int

let test_pool_propagates_exceptions () =
  List.iter
    (fun domains ->
      match
        Runner.Pool.map ~domains
          (fun x -> if x = 5 then raise (Boom x) else x)
          (List.init 12 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 5 -> ())
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Seed derivation: pure in (master, index), independent of order *)

let drain rng k = List.init k (fun _ -> Int64.of_int (Sim.Rng.int rng max_int))

let test_rng_derive_is_pure () =
  let a = drain (Sim.Rng.derive ~master:42 ~index:7) 16 in
  let b = drain (Sim.Rng.derive ~master:42 ~index:7) 16 in
  check Alcotest.(list int64) "same (master, index), same stream" a b;
  let c = drain (Sim.Rng.derive ~master:42 ~index:8) 16 in
  if a = c then Alcotest.fail "adjacent indices must give distinct streams";
  let d = drain (Sim.Rng.derive ~master:43 ~index:7) 16 in
  if a = d then Alcotest.fail "distinct masters must give distinct streams"

let test_rng_derive_order_independent () =
  (* Deriving shards in any order yields the same streams — unlike
     split, which advances shared state. *)
  let forward = List.init 6 (fun i -> drain (Sim.Rng.derive ~master:9 ~index:i) 4) in
  let backward =
    List.rev (List.init 6 (fun i -> drain (Sim.Rng.derive ~master:9 ~index:(5 - i)) 4))
  in
  check Alcotest.(list (list int64)) "order-independent" forward backward

(* ------------------------------------------------------------------ *)
(* Experiment 1 (quick mode) determinism across domain counts *)

(* Bit-exact float rendering: any divergence in value or order shows. *)
let hex f = Printf.sprintf "%h" f

let render_series (s : Experiments.Figures.series) =
  s.Experiments.Figures.label
  ^ String.concat ";"
      (List.map
         (fun (n, (sum : Metrics.Stats.summary)) ->
           Printf.sprintf "%d:%s±%s" n (hex sum.Metrics.Stats.mean)
             (hex sum.Metrics.Stats.ci95))
         s.Experiments.Figures.points)

let render_bursty (r : Experiments.Figures.bursty_result) =
  String.concat "\n"
    [
      render_series r.Experiments.Figures.proposals;
      render_series r.Experiments.Figures.floodings;
      render_series r.Experiments.Figures.convergence;
      string_of_bool r.Experiments.Figures.all_converged;
    ]

let test_fig6_quick_identical_across_domains () =
  let table domains =
    render_bursty
      (Experiments.Figures.fig6 ~domains ~sizes:[ 20; 60; 100 ]
         ~seeds:[ 1; 2; 3 ] ~members:10)
  in
  let sequential = table 1 in
  List.iter
    (fun domains ->
      check Alcotest.string
        (Printf.sprintf "fig6 quick table, %d domains" domains)
        sequential (table domains))
    [ 2; 4 ]

let test_hier_vs_flat_identical_across_domains () =
  let rows domains =
    List.map
      (fun (r : Experiments.Scale.row) ->
        Printf.sprintf "%s n=%d %s %s %s %b" r.Experiments.Scale.protocol
          r.Experiments.Scale.n
          (hex r.Experiments.Scale.floodings_per_event)
          (hex r.Experiments.Scale.messages_per_event)
          (hex r.Experiments.Scale.reach_per_event)
          r.Experiments.Scale.converged)
      (Experiments.Scale.hier_vs_flat ~domains ~seeds:[ 1; 2 ] ~areas:4
         ~per_area:6 ~events:8)
  in
  check Alcotest.(list string) "hierarchy rows, 1 vs 3 domains" (rows 1) (rows 3)

(* ------------------------------------------------------------------ *)
(* Fuzz batch determinism across domain counts *)

let render_outcome (o : Check.Fuzz.outcome) =
  let stat (s : Check.Fuzz.stats) =
    Printf.sprintf "ev=%d comp=%d wd=%d msg=%d ack=%d rtx=%d tx=%d drop=%d sw=%d"
      s.Check.Fuzz.s_totals.Dgmc.Protocol.events
      s.Check.Fuzz.s_totals.Dgmc.Protocol.computations
      s.Check.Fuzz.s_totals.Dgmc.Protocol.computations_withdrawn
      s.Check.Fuzz.s_totals.Dgmc.Protocol.messages
      s.Check.Fuzz.s_totals.Dgmc.Protocol.acks
      s.Check.Fuzz.s_totals.Dgmc.Protocol.retransmissions
      s.Check.Fuzz.s_faults.Faults.Plan.transmissions
      s.Check.Fuzz.s_faults.Faults.Plan.dropped s.Check.Fuzz.s_sweeps
  in
  let failure (f : Check.Fuzz.failure) =
    String.concat "|"
      (Format.asprintf "%a" Check.Fuzz.pp_failure f
      :: string_of_int f.Check.Fuzz.f_shrink_runs
      :: List.map
           (fun e -> Format.asprintf "%a" Workload.Events.pp e)
           f.Check.Fuzz.f_shrunk
      @ f.Check.Fuzz.f_problems)
  in
  String.concat "\n"
    ((string_of_int o.Check.Fuzz.o_iterations :: List.map stat o.Check.Fuzz.o_stats)
    @ List.map failure o.Check.Fuzz.o_failures)

let test_fuzz_batch_identical_across_domains () =
  (* Seed range 1020.. once included failing cases; since the
     crash-recovery fixes all pass, so the equality compares per-case
     counters (any new failure's shrunk workload and repro line would be
     compared too, via [render_outcome]). *)
  let outcome domains =
    render_outcome
      (Check.Fuzz.run ~health:false ~domains ~progress:ignore ~seed:1020
         ~iterations:25)
  in
  let sequential = outcome 1 in
  List.iter
    (fun domains ->
      check Alcotest.string
        (Printf.sprintf "fuzz outcome, %d domains" domains)
        sequential (outcome domains))
    [ 2; 4 ]

let test_fuzz_progress_order_is_deterministic () =
  let order domains =
    let seen = ref [] in
    ignore
      (Check.Fuzz.run ~health:false ~domains
         ~progress:(fun s -> seen := s :: !seen)
         ~seed:5 ~iterations:8);
    List.rev !seen
  in
  check Alcotest.(list int) "progress fires in seed order for any domains"
    (order 1) (order 4)

(* ------------------------------------------------------------------ *)
(* Pinned crash-recovery regressions *)

(* These seeds were the fuzzer's counterexamples to network-wide
   agreement before the resynchronisation fixes landed, each a distinct
   failure shape (this section previously pinned 1026 as a known-FAILING
   shrinker subject):

   - 1026, 1028, 1031: a link event flooded while part of the network was
     unreachable died at the severed links and was never re-flooded,
     leaving stale link-state images (fixed by versioned LSDB entries +
     database resynchronisation on link recovery);
   - 1039: an in-flight proposal installed a tree over a link that died
     during its computation (fixed by install-time re-validation);
   - 1113: a switch crash window swallowed floods the crashed switch
     never saw again (fixed by the crash-recovery RESYNCING exchange).

   Must-pass forever: a failure here is a protocol regression;
   [dgmc_sim --fuzz --seed N --iterations 1] replays it with the
   shrinker's minimal workload and repro line as the debugging entry
   point. *)
let pinned_recovery_seeds = [ 1026; 1028; 1031; 1039; 1113 ]

let test_pinned_recovery_seeds_agree () =
  List.iter
    (fun seed ->
      let case = Check.Fuzz.case_of_seed ~health:false seed in
      match Check.Fuzz.run_case case with
      | Ok _ -> ()
      | Error problems ->
        Alcotest.failf "seed %d diverged again: %s" seed
          (String.concat "; " problems))
    pinned_recovery_seeds

let () =
  Alcotest.run "runner"
    [
      ( "pool",
        [
          Alcotest.test_case "map equals List.map" `Quick test_pool_map_is_list_map;
          Alcotest.test_case "more domains than tasks" `Quick
            test_pool_handles_more_domains_than_tasks;
          Alcotest.test_case "empty batch" `Quick test_pool_empty_batch;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_propagates_exceptions;
        ] );
      ( "rng",
        [
          Alcotest.test_case "derive is pure" `Quick test_rng_derive_is_pure;
          Alcotest.test_case "derive is order-independent" `Quick
            test_rng_derive_order_independent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig6 quick, domains 1/2/4" `Slow
            test_fig6_quick_identical_across_domains;
          Alcotest.test_case "hier vs flat, domains 1/3" `Slow
            test_hier_vs_flat_identical_across_domains;
          Alcotest.test_case "fuzz batch, domains 1/2/4" `Slow
            test_fuzz_batch_identical_across_domains;
          Alcotest.test_case "fuzz progress order" `Quick
            test_fuzz_progress_order_is_deterministic;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "pinned crash-recovery seeds reach agreement"
            `Slow test_pinned_recovery_seeds_agree;
        ] );
    ]
