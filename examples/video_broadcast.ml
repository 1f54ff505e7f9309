(* Video broadcast: a single-source asymmetric MC (paper Figure 1c).
   One station transmits; viewers tune in and out.  Shows the
   source-rooted shortest-path topology D-GMC maintains for asymmetric
   connections, the per-viewer delivery delays, and what it would cost
   to run the same session over a shared tree instead.

     dune exec examples/video_broadcast.exe *)

let () =
  let seed = 11 in
  let n = 50 in
  let graph = Experiments.Harness.graph_for ~seed ~n in
  let net = Dgmc.Protocol.create ~graph ~config:Dgmc.Config.atm_lan () in
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Asymmetric 9 in
  let rng = Sim.Rng.create seed in

  let station = 0 in
  let viewers = Sim.Rng.sample rng 10 (List.init (n - 1) (fun i -> i + 1)) in
  Format.printf "station at switch %d, %d viewers on a %d-switch network@.@."
    station (List.length viewers) n;

  Dgmc.Protocol.join net ~switch:station mc Dgmc.Member.Sender;
  List.iter (fun v -> Dgmc.Protocol.join net ~switch:v mc Dgmc.Member.Receiver) viewers;
  Dgmc.Protocol.run net;
  assert (Dgmc.Protocol.converged net mc);

  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc) in
  Format.printf "source-rooted tree: cost %.2f, depth %d hops@."
    (Mctree.Tree.cost graph tree)
    (Mctree.Spt.depth tree ~root:station);
  List.iter
    (fun (viewer, delay) -> Format.printf "  viewer %2d: delay %.2f@." viewer delay)
    (Mctree.Spt.receivers_cost graph tree ~root:station);

  (* Viewers churn: two leave, three join. *)
  let leavers = [ List.nth viewers 0; List.nth viewers 1 ] in
  let joiners =
    List.filter
      (fun x -> x <> station && not (List.mem x viewers))
      (List.init n (fun i -> i))
    |> Sim.Rng.sample rng 3
  in
  List.iter (fun v -> Dgmc.Protocol.leave net ~switch:v mc) leavers;
  List.iter (fun v -> Dgmc.Protocol.join net ~switch:v mc Dgmc.Member.Receiver) joiners;
  Dgmc.Protocol.run net;
  assert (Dgmc.Protocol.converged net mc);
  let tree' = Option.get (Dgmc.Protocol.agreed_topology net mc) in
  Format.printf "@.after churn (-%d +%d viewers): cost %.2f, depth %d hops@."
    (List.length leavers) (List.length joiners)
    (Mctree.Tree.cost graph tree')
    (Mctree.Spt.depth tree' ~root:station);

  (* What the same audience costs on each topology style: the SPT
     minimizes per-viewer latency; a Steiner tree minimizes total
     bandwidth.  D-GMC supports both — that is the point of its
     generality. *)
  let members = Mctree.Tree.terminals tree' in
  let shared = Mctree.Steiner.kmb graph members in
  let spt_delays =
    List.map snd (Mctree.Spt.receivers_cost graph tree' ~root:station)
  in
  let shared_delays =
    List.map snd (Mctree.Spt.receivers_cost graph shared ~root:station)
  in
  Format.printf "@.topology style comparison for the same audience:@.";
  Format.printf "  source-rooted: cost %6.2f   mean delay %5.2f   max delay %5.2f@."
    (Mctree.Tree.cost graph tree')
    (Metrics.Stats.mean spt_delays)
    (List.fold_left Float.max 0.0 spt_delays);
  Format.printf "  shared (kmb):  cost %6.2f   mean delay %5.2f   max delay %5.2f@."
    (Mctree.Tree.cost graph shared)
    (Metrics.Stats.mean shared_delays)
    (List.fold_left Float.max 0.0 shared_delays)
