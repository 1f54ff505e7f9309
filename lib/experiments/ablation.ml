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
  | Some tree when Mctree.Tree.n_terminals tree > 0 ->
    let members = Mctree.Tree.terminals tree in
    let fresh = Mctree.Steiner.kmb graph members in
    let fresh_cost = Mctree.Tree.cost graph fresh in
    let ratio =
      if fresh_cost <= 0.0 then 1.0 else Mctree.Tree.cost graph tree /. fresh_cost
    in
    (ratio, converged)
  | Some _ | None -> (1.0, converged)

let incremental_vs_scratch ~seeds =
  let n = 40 in
  let run label config =
    let results =
      List.map (fun seed -> churn_session ~seed ~n ~churn_events:20 config) seeds
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
      { Dgmc.Config.atm_lan with computation = Scratch };
  ]

type heuristic_row = {
  algo : string;
  members : int;
  mean_cost_vs_bound : float;
}

let steiner_heuristics ~seeds =
  let n = 60 in
  List.concat_map
    (fun count ->
      List.map
        (fun (name, algo) ->
          (* The fold fixes the order the float sum runs in, and so the
             table's digits: last seed first. *)
          let ratios =
            List.fold_left
              (fun acc seed ->
                let graph = Harness.graph_for ~seed ~n in
                let rng = Sim.Rng.create (seed * 733) in
                let members =
                  Sim.Rng.sample rng count (List.init n (fun i -> i))
                in
                let bound = Mctree.Steiner.lower_bound graph members in
                if bound > 0.0 then
                  (Mctree.Tree.cost graph (algo graph members) /. bound) :: acc
                else acc)
              [] seeds
          in
          {
            algo = name;
            members = count;
            mean_cost_vs_bound =
              (if ratios = [] then 1.0 else Metrics.Stats.mean ratios);
          })
        [ ("kmb", Mctree.Steiner.kmb); ("sph", Mctree.Steiner.sph) ])
    [ 5; 10; 20 ]

type drift_row = {
  threshold : float;
  final_cost_ratio : float;
  d_converged : bool;
}

let drift_threshold ~seeds =
  let n = 40 in
  List.map
    (fun threshold ->
      let config =
        { Dgmc.Config.atm_lan with computation = Incremental { drift = threshold } }
      in
      let results =
        List.map (fun seed -> churn_session ~seed ~n ~churn_events:25 config) seeds
      in
      {
        threshold;
        final_cost_ratio = Metrics.Stats.mean (List.map fst results);
        d_converged = List.for_all snd results;
      })
    [ 1.05; 1.2; 1.5; 2.0; 10.0 ]
