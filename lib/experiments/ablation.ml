type incremental_row = {
  label : string;
  mean_cost_ratio : float;
  all_converged : bool;
}

let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

(* Burst-then-churn session; returns (final cost / fresh KMB cost,
   converged). *)
let churn_session ~seed ~n ~churn_events config =
  let graph = Harness.graph_for ~seed ~n in
  let net = Dgmc.Protocol.create ~graph ~config () in
  let rng = Sim.Rng.create (seed * 131) in
  let round = Dgmc.Config.round_length config ~graph in
  Workload.Events.apply_dgmc net
    (Workload.Bursty.joins rng ~n ~mc ~members:8 ~window:round ());
  Dgmc.Protocol.run net;
  let initial =
    Dgmc.Member.ids
      (Option.value ~default:Dgmc.Member.empty
         (Dgmc.Switch.members (Dgmc.Protocol.switch net 0) mc))
  in
  let start = Sim.Engine.now (Dgmc.Protocol.engine net) +. round in
  Workload.Events.apply_dgmc net
    (Workload.Poisson.membership rng ~n ~mc ~events:churn_events
       ~mean_gap:(5.0 *. round) ~initial ~start ()
    |> List.filter (fun (e : Workload.Events.t) -> e.time > start));
  Dgmc.Protocol.run net;
  let converged = Dgmc.Protocol.converged net mc in
  match Dgmc.Protocol.agreed_topology net mc with
  | Some tree when not (Mctree.Tree.Int_set.is_empty (Mctree.Tree.terminals tree))
    ->
    let members = Mctree.Tree.Int_set.elements (Mctree.Tree.terminals tree) in
    let fresh = Mctree.Steiner.kmb graph members in
    let fresh_cost = Mctree.Tree.cost graph fresh in
    let ratio =
      if fresh_cost <= 0.0 then 1.0 else Mctree.Tree.cost graph tree /. fresh_cost
    in
    (ratio, converged)
  | Some _ | None -> (1.0, converged)

let incremental_vs_scratch ?(seeds = Figures.default_seeds) ?(n = 40)
    ?(churn_events = 20) () =
  let run label config =
    let results =
      List.map (fun seed -> churn_session ~seed ~n ~churn_events config) seeds
    in
    {
      label;
      mean_cost_ratio = Metrics.Stats.mean (List.map fst results);
      all_converged = List.for_all snd results;
    }
  in
  [
    run "incremental (drift 1.5)" Dgmc.Config.atm_lan;
    run "from-scratch every event"
      { Dgmc.Config.atm_lan with incremental = false };
  ]

type heuristic_row = {
  algo : string;
  members : int;
  mean_cost_vs_bound : float;
  mean_time_us : float;
}

let steiner_heuristics ?(seeds = Figures.default_seeds) ?(n = 60) () =
  List.concat_map
    (fun count ->
      List.map
        (fun (name, algo) ->
          let ratios = ref [] and times = ref [] in
          List.iter
            (fun seed ->
              let graph = Harness.graph_for ~seed ~n in
              let rng = Sim.Rng.create (seed * 733) in
              let members = Sim.Rng.sample rng count (List.init n (fun i -> i)) in
              let bound = Mctree.Steiner.lower_bound graph members in
              (* Repeat enough to out-resolve Sys.time's clock ticks. *)
              let reps = 20 in
              (* dgmc-analyze: allow nondet-source — CPU-time measurement of
                 the algorithm itself, reported as a timing figure *)
              let t0 = Sys.time () in
              let tree = algo graph members in
              for _ = 2 to reps do
                ignore (algo graph members)
              done;
              (* dgmc-analyze: allow nondet-source — CPU-time measurement *)
              let elapsed = (Sys.time () -. t0) /. float_of_int reps in
              times := elapsed *. 1e6 :: !times;
              if bound > 0.0 then
                ratios := (Mctree.Tree.cost graph tree /. bound) :: !ratios)
            seeds;
          {
            algo = name;
            members = count;
            mean_cost_vs_bound =
              (if !ratios = [] then 1.0 else Metrics.Stats.mean !ratios);
            mean_time_us = Metrics.Stats.mean !times;
          })
        [ ("kmb", Mctree.Steiner.kmb); ("sph", Mctree.Steiner.sph) ])
    [ 5; 10; 20 ]

type drift_row = {
  threshold : float;
  final_cost_ratio : float;
  d_converged : bool;
}

let drift_threshold ?(seeds = Figures.default_seeds) ?(n = 40) () =
  List.map
    (fun threshold ->
      let config = { Dgmc.Config.atm_lan with drift_threshold = threshold } in
      let results =
        List.map (fun seed -> churn_session ~seed ~n ~churn_events:25 config) seeds
      in
      {
        threshold;
        final_cost_ratio = Metrics.Stats.mean (List.map fst results);
        d_converged = List.for_all snd results;
      })
    [ 1.05; 1.2; 1.5; 2.0; 10.0 ]

type flooding_row = {
  mode : string;
  same_topology_as_hop_by_hop : bool;
  wall_time_ms : float;
  sim_events : int;
}

let flooding_modes ?(seed = 1) ?(n = 80) () =
  let run mode =
    let config = { Dgmc.Config.atm_lan with flood_mode = mode } in
    let graph = Harness.graph_for ~seed ~n in
    let net = Dgmc.Protocol.create ~graph ~config () in
    let rng = Sim.Rng.create (seed * 17) in
    let round = Dgmc.Config.round_length config ~graph in
    Workload.Events.apply_dgmc net
      (Workload.Bursty.joins rng ~n ~mc ~members:12 ~window:round ());
    (* dgmc-analyze: allow nondet-source — CPU-time measurement of the run *)
    let t0 = Sys.time () in
    Dgmc.Protocol.run net;
    (* dgmc-analyze: allow nondet-source — CPU-time measurement *)
    let elapsed = (Sys.time () -. t0) *. 1e3 in
    ( Dgmc.Protocol.agreed_topology net mc,
      elapsed,
      Sim.Engine.events_executed (Dgmc.Protocol.engine net) )
  in
  let topo_h, time_h, events_h = run Lsr.Flooding.Hop_by_hop in
  let topo_i, time_i, events_i = run Lsr.Flooding.Ideal in
  let same =
    match (topo_h, topo_i) with
    | Some a, Some b -> Mctree.Tree.equal a b
    | None, None -> true
    | _ -> false
  in
  [
    {
      mode = "hop-by-hop";
      same_topology_as_hop_by_hop = true;
      wall_time_ms = time_h;
      sim_events = events_h;
    };
    {
      mode = "ideal";
      same_topology_as_hop_by_hop = same;
      wall_time_ms = time_i;
      sim_events = events_i;
    };
  ]
