type run = {
  n : int;
  events : int;
  computations_per_event : float;
  floodings_per_event : float;
  messages_per_event : float;
  convergence_rounds : float option;
  converged : bool;
}

let graph_for ~seed ~n =
  let rng = Sim.Rng.create ((seed * 7919) + n) in
  Net.Topo_gen.waxman rng ~n ~target_degree:3.5 ()

let per_event count events =
  if events = 0 then 0.0 else float_of_int count /. float_of_int events

let measure net mcs =
  let totals = Dgmc.Protocol.totals net in
  {
    n = Dgmc.Protocol.n_switches net;
    events = totals.events;
    computations_per_event = per_event totals.computations totals.events;
    floodings_per_event = per_event totals.mc_floodings totals.events;
    messages_per_event = per_event totals.messages totals.events;
    convergence_rounds = Dgmc.Protocol.convergence_rounds net;
    converged = List.for_all (Dgmc.Protocol.converged net) mcs;
  }

(* The burst of experiments 1 and 2, the same for every protocol:
   [members] joins of a fresh symmetric MC within one flooding-diameter
   window (at least [tc]). *)
let burst ~seed ~n ~config ~members =
  let graph = graph_for ~seed ~n in
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
  let rng = Sim.Rng.create (seed lxor 0x5bd1e995) in
  let window =
    Float.max config.Dgmc.Config.tc
      (Lsr.Flooding.flood_diameter ~graph ~t_hop:config.Dgmc.Config.t_hop)
  in
  (graph, mc, Workload.Bursty.joins rng ~n ~mc ~members ~window ())

let bursty_run ?trace ?metrics ?series ~seed ~n ~config ~members () =
  let graph, mc, events = burst ~seed ~n ~config ~members in
  let net = Dgmc.Protocol.create ~graph ~config ?trace ?metrics ?series () in
  Workload.Events.apply_dgmc net events;
  Dgmc.Protocol.run net;
  measure net [ mc ]

let poisson_run ?trace ?metrics ~seed ~n ~config ~events ~gap_rounds () =
  let graph = graph_for ~seed ~n in
  let net = Dgmc.Protocol.create ~graph ~config ?trace ?metrics () in
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
  let rng = Sim.Rng.create (seed lxor 0x2545f491) in
  (* Establish a 5-member MC first; that setup is not measured. *)
  let initial = Sim.Rng.sample rng 5 (List.init n (fun i -> i)) in
  List.iter
    (fun switch -> Dgmc.Protocol.join net ~switch mc Dgmc.Member.Both)
    initial;
  Dgmc.Protocol.run net;
  Dgmc.Protocol.reset_counters net;
  let round = Dgmc.Config.round_length config ~graph in
  let start = Sim.Engine.now (Dgmc.Protocol.engine net) +. round in
  let schedule =
    Workload.Poisson.membership rng ~n ~mc ~events
      ~mean_gap:(gap_rounds *. round) ~initial ~start ()
    (* the seed joins already happened; keep only the churn *)
    |> List.filter (fun (e : Workload.Events.t) -> e.time > start)
  in
  Workload.Events.apply_dgmc net schedule;
  Dgmc.Protocol.run net;
  measure net [ mc ]

let brute_force_bursty_run ~seed ~n ~config ~members =
  let graph, mc, events = burst ~seed ~n ~config ~members in
  let bf = Baselines.Brute_force.create ~graph ~config () in
  List.iter
    (fun (e : Workload.Events.t) ->
      match e.action with
      | Workload.Events.Join { switch; mc; role } ->
        Baselines.Brute_force.schedule_join bf ~at:e.time ~switch mc role
      | Workload.Events.Leave { switch; mc } ->
        Baselines.Brute_force.schedule_leave bf ~at:e.time ~switch mc
      | Workload.Events.Link_down _ | Workload.Events.Link_up _ -> ())
    events;
  let first = List.fold_left (fun a (e : Workload.Events.t) -> Float.min a e.time) infinity events in
  Baselines.Brute_force.run bf;
  let totals = Baselines.Brute_force.totals bf in
  let round = Dgmc.Config.round_length config ~graph in
  let settle = (Sim.Engine.now (Baselines.Brute_force.engine bf) -. first) /. round in
  {
    n;
    events = totals.events;
    computations_per_event = per_event totals.computations totals.events;
    floodings_per_event = per_event totals.floodings totals.events;
    messages_per_event = per_event totals.messages totals.events;
    convergence_rounds = Some settle;
    converged = Baselines.Brute_force.converged bf mc;
  }

let mospf_bursty_run ~seed ~n ~config ~members ~sources =
  let graph, _, events = burst ~seed ~n ~config ~members in
  let m = Baselines.Mospf.create ~graph ~config () in
  let group = 1 in
  let member_switches =
    List.filter_map
      (fun (e : Workload.Events.t) ->
        match e.action with
        | Workload.Events.Join { switch; _ } -> Some switch
        | _ -> None)
      events
  in
  List.iter
    (fun (e : Workload.Events.t) ->
      match e.action with
      | Workload.Events.Join { switch; _ } ->
        Baselines.Mospf.schedule_join m ~at:e.time ~switch ~group
      | Workload.Events.Leave { switch; _ } ->
        Baselines.Mospf.schedule_leave m ~at:e.time ~switch ~group
      | Workload.Events.Link_down _ | Workload.Events.Link_up _ -> ())
    events;
  Baselines.Mospf.run m;
  (* Membership has settled; now the data-driven computations happen when
     the sources speak.  One datagram per source — the minimum that
     rebuilds the forwarding state after the burst. *)
  let senders =
    List.filteri
      (fun i _ -> i < sources)
      (List.sort_uniq Int.compare member_switches)
  in
  List.iter (fun src -> Baselines.Mospf.send_packet m ~src ~group) senders;
  Baselines.Mospf.run m;
  let totals = Baselines.Mospf.totals m in
  {
    n;
    events = totals.events;
    computations_per_event = per_event totals.computations totals.events;
    floodings_per_event = per_event totals.floodings totals.events;
    messages_per_event = per_event totals.messages totals.events;
    convergence_rounds = None;
    converged = true;
  }
