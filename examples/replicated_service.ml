(* Replicated file service: replicas subscribe to an update feed as a
   receiver-only MC (paper Figure 1b); any client may publish an update
   from anywhere via two-stage delivery.  Compares the D-GMC shared tree
   (contact = nearest tree node) against CBT (contact = core-ward path),
   reproducing the §5 trade-off discussion.

     dune exec examples/replicated_service.exe *)

let () =
  let seed = 5 in
  let n = 40 in
  let graph = Experiments.Harness.graph_for ~seed ~n in
  let net = Dgmc.Protocol.create ~graph ~config:Dgmc.Config.atm_lan () in
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Receiver_only 7 in
  let rng = Sim.Rng.create seed in

  let replicas = Sim.Rng.sample rng 8 (List.init n (fun i -> i)) in
  Format.printf "replicas at switches: %s@.@."
    (String.concat ", " (List.map string_of_int replicas));

  List.iter
    (fun r -> Dgmc.Protocol.join net ~switch:r mc Dgmc.Member.Receiver)
    replicas;
  Dgmc.Protocol.run net;
  assert (Dgmc.Protocol.converged net mc);
  let tree = Option.get (Dgmc.Protocol.agreed_topology net mc) in
  Format.printf "update-feed tree (D-GMC receiver-only MC): cost %.2f@.@."
    (Mctree.Tree.cost graph tree);

  (* Clients publish updates from random non-replica switches. *)
  let clients =
    List.filter (fun x -> not (List.mem x replicas)) (List.init n (fun i -> i))
    |> Sim.Rng.sample rng 5
  in
  Format.printf "publishing one update from each client %s:@."
    (String.concat ", " (List.map string_of_int clients));
  let dgmc_loads = Hashtbl.create 32 in
  List.iter
    (fun client ->
      let report = Mctree.Delivery.two_stage graph tree ~src:client in
      Mctree.Delivery.accumulate_loads dgmc_loads report;
      let worst =
        List.fold_left
          (fun acc (d : Mctree.Delivery.delivery) -> Float.max acc d.delay)
          0.0 report.deliveries
      in
      Format.printf "  client %2d -> contact %s, worst replica delay %.2f@."
        client
        (match report.contact with Some c -> string_of_int c | None -> "-")
        worst)
    clients;

  (* The same service on CBT, with its core chosen blind (first member)
     versus by an oracle (median). *)
  let run_cbt label core =
    let cbt = Baselines.Cbt.create ~graph ~core in
    List.iter (Baselines.Cbt.join cbt) replicas;
    let loads = Hashtbl.create 32 in
    let delays = ref [] in
    List.iter
      (fun client ->
        let report = Baselines.Cbt.deliver cbt ~src:client in
        Mctree.Delivery.accumulate_loads loads report;
        List.iter
          (fun (d : Mctree.Delivery.delivery) -> delays := d.delay :: !delays)
          report.deliveries)
      clients;
    Format.printf
      "  %-24s core=%2d  tree cost %6.2f  mean delay %5.2f  control msgs %3d@."
      label core
      (Mctree.Tree.cost graph (Baselines.Cbt.tree cbt))
      (Metrics.Stats.mean !delays)
      (Baselines.Cbt.control_messages cbt)
  in
  Format.printf "@.the same service over CBT:@.";
  run_cbt "cbt (median core)" (Baselines.Core_select.median graph ~members:replicas);
  run_cbt "cbt (first-member core)" (Baselines.Core_select.first_member replicas);
  Format.printf
    "@.(D-GMC needs no core at all: any switch can be the contact, and the@.";
  Format.printf
    " tree is optimised against the full topology every switch already has)@."
