type series = {
  label : string;
  points : (int * Metrics.Stats.summary) list;
}

type bursty_result = {
  proposals : series;
  floodings : series;
  convergence : series;
  all_converged : bool;
}

(* Run one (size × seed) sweep through the domain pool and regroup the
   flat results by size.  Each cell derives all randomness from its own
   (seed, n), so results are identical for any domain count. *)
let sweep_cells ~domains ~sizes ~seeds run =
  let cells =
    List.concat_map (fun n -> List.map (fun seed -> (n, seed)) seeds) sizes
  in
  let tagged =
    List.combine cells
      (Runner.Pool.map ~domains (fun (n, seed) -> run ~seed ~n) cells)
  in
  List.map
    (fun n ->
      ( n,
        List.filter_map
          (fun ((n', _), r) -> if n' = n then Some r else None)
          tagged ))
    sizes

(* One per-run metric of a sweep, reduced per size to mean ± CI. *)
let series label extract by_size =
  {
    label;
    points =
      List.map
        (fun (n, rs) -> (n, Metrics.Stats.summarize (List.map extract rs)))
        by_size;
  }

let bursty config ~domains ~sizes ~seeds ~members =
  let runs =
    sweep_cells ~domains ~sizes ~seeds (fun ~seed ~n ->
        Harness.bursty_run ~seed ~n ~config ~members ())
  in
  {
    proposals =
      series "proposals/event" (fun r -> r.Harness.computations_per_event) runs;
    floodings =
      series "floodings/event" (fun r -> r.Harness.floodings_per_event) runs;
    convergence =
      series "convergence (rounds)"
        (fun r -> Option.value ~default:0.0 r.Harness.convergence_rounds)
        runs;
    all_converged =
      List.for_all
        (fun (_, rs) -> List.for_all (fun r -> r.Harness.converged) rs)
        runs;
  }

let fig6 = bursty Dgmc.Config.atm_lan

let fig7 = bursty Dgmc.Config.wan

type normal_result = {
  n_proposals : series;
  n_floodings : series;
  n_all_converged : bool;
}

let fig8 ~domains ~sizes ~seeds ~events ~gap_rounds =
  let config = Dgmc.Config.atm_lan in
  let runs =
    sweep_cells ~domains ~sizes ~seeds (fun ~seed ~n ->
        Harness.poisson_run ~seed ~n ~config ~events ~gap_rounds ())
  in
  {
    n_proposals =
      series "proposals/event" (fun r -> r.Harness.computations_per_event) runs;
    n_floodings =
      series "floodings/event" (fun r -> r.Harness.floodings_per_event) runs;
    n_all_converged =
      List.for_all
        (fun (_, rs) -> List.for_all (fun r -> r.Harness.converged) rs)
        runs;
  }

type comparison = {
  c_sizes : int list;
  dgmc_computations : series;
  brute_computations : series;
  mospf_computations : series;
  dgmc_floodings : series;
  brute_floodings : series;
  mospf_floodings : series;
}

let compare_protocols ~domains ~sizes ~seeds ~members ~sources =
  let config = Dgmc.Config.atm_lan in
  let sweep label runner =
    let per_size = sweep_cells ~domains ~sizes ~seeds runner in
    ( series label (fun r -> r.Harness.computations_per_event) per_size,
      series label (fun r -> r.Harness.floodings_per_event) per_size )
  in
  let dgmc_c, dgmc_f =
    sweep "dgmc" (fun ~seed ~n -> Harness.bursty_run ~seed ~n ~config ~members ())
  in
  let brute_c, brute_f =
    sweep "brute-force" (fun ~seed ~n ->
        Harness.brute_force_bursty_run ~seed ~n ~config ~members)
  in
  let mospf_c, mospf_f =
    sweep "mospf" (fun ~seed ~n ->
        Harness.mospf_bursty_run ~seed ~n ~config ~members ~sources)
  in
  {
    c_sizes = sizes;
    dgmc_computations = dgmc_c;
    brute_computations = brute_c;
    mospf_computations = mospf_c;
    dgmc_floodings = dgmc_f;
    brute_floodings = brute_f;
    mospf_floodings = mospf_f;
  }

type cbt_row = {
  strategy : string;
  tree_cost : float;
  max_link_load : int;
  mean_link_load : float;
  links_used : int;
  mean_delay : float;
  control_messages : int;
}

(* Packets each sender injects into the tree under test. *)
let packets_per_sender = 5

let cbt_comparison ~seed ~n ~receivers ~senders =
  let graph = Harness.graph_for ~seed ~n in
  let rng = Sim.Rng.create (seed lxor 0x9e3779b9) in
  let all = List.init n (fun i -> i) in
  let receiver_set = Sim.Rng.sample rng receivers all in
  let sender_pool = List.filter (fun x -> not (List.mem x receiver_set)) all in
  let sender_set = Sim.Rng.sample rng senders sender_pool in
  let load_run tree ~deliver ~control ~strategy =
    let loads = Hashtbl.create 64 in
    let delays = ref [] in
    List.iter
      (fun src ->
        for _ = 1 to packets_per_sender do
          let report = deliver ~src in
          Mctree.Delivery.accumulate_loads loads report;
          List.iter
            (fun (d : Mctree.Delivery.delivery) -> delays := d.delay :: !delays)
            report.Mctree.Delivery.deliveries
        done)
      sender_set;
    (* Sort before averaging: float addition is not associative, so the
       mean depends on summation order, and Hashtbl.fold enumerates in
       representation order (which varies with insertion history). *)
    let link_loads =
      Hashtbl.fold (fun _ l acc -> float_of_int l :: acc) loads []
      |> List.sort Float.compare
    in
    {
      strategy;
      tree_cost = Mctree.Tree.cost graph tree;
      max_link_load = Mctree.Delivery.max_load loads;
      mean_link_load =
        (if link_loads = [] then 0.0 else Metrics.Stats.mean link_loads);
      links_used = Hashtbl.length loads;
      mean_delay = (if !delays = [] then 0.0 else Metrics.Stats.mean !delays);
      control_messages = control;
    }
  in
  (* D-GMC receiver-only MC: Steiner tree over the receivers, any node
     can be the contact (nearest tree node). *)
  let dgmc_tree = Mctree.Steiner.kmb graph receiver_set in
  let dgmc_row =
    load_run dgmc_tree
      ~deliver:(fun ~src -> Mctree.Delivery.two_stage graph dgmc_tree ~src)
      ~control:0 ~strategy:"dgmc shared (kmb, any contact)"
  in
  (* D-GMC asymmetric MCs: one source-rooted tree per sender.  This is
     the configuration that spreads load — the shared-tree rows below
     necessarily funnel every packet over every tree link, which is the
     traffic concentration the paper attributes to CBT. *)
  let spt_row =
    let trees =
      List.map
        (fun src ->
          (src, Mctree.Spt.source_rooted graph ~root:src ~receivers:receiver_set))
        sender_set
    in
    let total_cost =
      List.fold_left (fun acc (_, t) -> acc +. Mctree.Tree.cost graph t) 0.0 trees
    in
    let row =
      load_run Mctree.Tree.empty
        ~deliver:(fun ~src ->
          Mctree.Delivery.multicast graph (List.assoc src trees) ~src)
        ~control:0 ~strategy:"dgmc per-source (spt)"
    in
    { row with tree_cost = total_cost }
  in
  let cbt_with core strategy =
    let cbt = Baselines.Cbt.create ~graph ~core in
    List.iter (Baselines.Cbt.join cbt) receiver_set;
    load_run (Baselines.Cbt.tree cbt)
      ~deliver:(fun ~src -> Baselines.Cbt.deliver cbt ~src)
      ~control:(Baselines.Cbt.control_messages cbt)
      ~strategy
  in
  [
    spt_row;
    dgmc_row;
    cbt_with (Baselines.Core_select.median graph ~members:receiver_set)
      "cbt (median core)";
    cbt_with (Baselines.Core_select.center graph ~members:receiver_set)
      "cbt (center core)";
    cbt_with (Baselines.Core_select.first_member receiver_set)
      "cbt (first-member core)";
    cbt_with (Baselines.Core_select.random (Sim.Rng.create (seed + 77)) graph)
      "cbt (random core)";
  ]

let ci (s : Metrics.Stats.summary) = Metrics.Table.cell_ci ~mean:s.mean ~ci:s.ci95

(* One row per point of [lead]: the size, then [lead]'s cell and each
   other series' cell at that size. *)
let size_rows (lead : series) others =
  List.map
    (fun (n, p) ->
      string_of_int n :: ci p
      :: List.map (fun (s : series) -> ci (List.assoc n s.points)) others)
    lead.points

let bursty_table (r : bursty_result) =
  {
    Metrics.Table.align = [];
    headers =
      [
        "switches"; "(a) proposals/event"; "(b) floodings/event";
        "(c) convergence (rounds)";
      ];
    rows = size_rows r.proposals [ r.floodings; r.convergence ];
  }

let normal_table (r : normal_result) =
  {
    Metrics.Table.align = [];
    headers = [ "switches"; "(a) proposals/event"; "(b) floodings/event" ];
    rows = size_rows r.n_proposals [ r.n_floodings ];
  }

let comparison_table (c : comparison) =
  {
    Metrics.Table.align = [];
    headers =
      [
        "switches"; "dgmc comp/ev"; "brute comp/ev"; "mospf comp/ev";
        "dgmc flood/ev"; "brute flood/ev"; "mospf flood/ev";
      ];
    rows =
      size_rows c.dgmc_computations
        [
          c.brute_computations; c.mospf_computations; c.dgmc_floodings;
          c.brute_floodings; c.mospf_floodings;
        ];
  }

let cbt_table rows =
  {
    Metrics.Table.align = [ Metrics.Table.Left ];
    headers =
      [
        "configuration"; "tree cost"; "max link load"; "mean link load";
        "links used"; "mean delay"; "control msgs";
      ];
    rows =
      List.map
        (fun r ->
          [
            r.strategy;
            Metrics.Table.cell_f r.tree_cost;
            string_of_int r.max_link_load;
            Metrics.Table.cell_f r.mean_link_load;
            string_of_int r.links_used;
            Metrics.Table.cell_f r.mean_delay;
            string_of_int r.control_messages;
          ])
        rows;
  }
