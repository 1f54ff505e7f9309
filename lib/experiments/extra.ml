type burst_row = {
  members : int;
  proposals_per_event : Metrics.Stats.summary;
  floodings_per_event : Metrics.Stats.summary;
  convergence_rounds : Metrics.Stats.summary;
  all_converged : bool;
}

(* Both sweeps run on 60-switch graphs. *)
let n = 60

let burst_size ~seeds =
  let config = Dgmc.Config.atm_lan in
  List.map
    (fun members ->
      let runs =
        List.map (fun seed -> Harness.bursty_run ~seed ~n ~config ~members ()) seeds
      in
      {
        members;
        proposals_per_event =
          Metrics.Stats.summarize
            (List.map (fun r -> r.Harness.computations_per_event) runs);
        floodings_per_event =
          Metrics.Stats.summarize
            (List.map (fun r -> r.Harness.floodings_per_event) runs);
        convergence_rounds =
          Metrics.Stats.summarize
            (List.map
               (fun r -> Option.value ~default:0.0 r.Harness.convergence_rounds)
               runs);
        all_converged = List.for_all (fun r -> r.Harness.converged) runs;
      })
    [ 2; 5; 10; 20; 30 ]

type independence_row = {
  mcs : int;
  per_mc_computations : Metrics.Stats.summary;
  per_mc_floodings : Metrics.Stats.summary;
  i_all_converged : bool;
}

let mc_independence ~seeds =
  let config = Dgmc.Config.atm_lan in
  List.map
    (fun k ->
      let runs =
        List.map
          (fun seed ->
            let graph = Harness.graph_for ~seed ~n in
            let net = Dgmc.Protocol.create ~graph ~config () in
            let rng = Sim.Rng.create (seed lxor 0x7a3d) in
            let window =
              Float.max config.Dgmc.Config.tc
                (Lsr.Flooding.flood_diameter ~graph ~t_hop:config.Dgmc.Config.t_hop)
            in
            let mcs =
              List.init k (fun i -> Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric (i + 1))
            in
            (* k independent bursts in the same window: the worst case
               for cross-MC interference, if there were any. *)
            List.iter
              (fun mc ->
                Workload.Events.apply_dgmc net
                  (Workload.Bursty.joins rng ~n ~mc ~members:6 ~window ()))
              mcs;
            Dgmc.Protocol.run net;
            let totals = Dgmc.Protocol.totals net in
            let converged = List.for_all (Dgmc.Protocol.converged net) mcs in
            let per_mc_events = float_of_int (totals.events / k) in
            ( float_of_int totals.computations /. float_of_int k /. per_mc_events,
              float_of_int totals.mc_floodings /. float_of_int k /. per_mc_events,
              converged ))
          seeds
      in
      {
        mcs = k;
        per_mc_computations =
          Metrics.Stats.summarize (List.map (fun (c, _, _) -> c) runs);
        per_mc_floodings =
          Metrics.Stats.summarize (List.map (fun (_, f, _) -> f) runs);
        i_all_converged = List.for_all (fun (_, _, ok) -> ok) runs;
      })
    [ 1; 2; 4; 8 ]
