(* Quickstart: the three MC types of the paper's Figure 1, built with the
   D-GMC protocol on a small network.

     dune exec examples/quickstart.exe

   Walks through: building a topology, running a protocol instance,
   joining members of each MC type, and inspecting the agreed topology. *)

let print_tree net mc =
  match Dgmc.Protocol.agreed_topology net mc with
  | Some tree ->
    Format.printf "  agreed topology: %a@." Mctree.Tree.pp tree;
    Format.printf "  cost: %.2f, valid: %b@."
      (Mctree.Tree.cost (Dgmc.Protocol.graph net) tree)
      (Mctree.Tree.is_valid_mc_topology (Dgmc.Protocol.graph net) tree)
  | None -> Format.printf "  (no agreed topology)@."

let () =
  (* A deterministic 12-switch Waxman network. *)
  let rng = Sim.Rng.create 2024 in
  let graph = Net.Topo_gen.waxman rng ~n:12 in
  Format.printf "network: %d switches, %d links, hop diameter %d@.@."
    (Net.Graph.n_nodes graph) (Net.Graph.n_edges graph)
    (Net.Bfs.hop_diameter graph);

  let net = Dgmc.Protocol.create ~graph ~config:Dgmc.Config.atm_lan () in

  (* 1. A symmetric MC — every member can speak and listen (Figure 1a).
     Five switches join in one burst; D-GMC converges on a shared
     Steiner-style tree. *)
  let conference = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
  Format.printf "symmetric MC (teleconference), members 0 2 5 7 9:@.";
  List.iter
    (fun sw -> Dgmc.Protocol.join net ~switch:sw conference Dgmc.Member.Both)
    [ 0; 2; 5; 7; 9 ];
  Dgmc.Protocol.run net;
  assert (Dgmc.Protocol.converged net conference);
  print_tree net conference;

  (* 2. A receiver-only MC (Figure 1b) — members are receivers; any
     sender reaches them through a contact node on the tree. *)
  let subscribers = Dgmc.Mc_id.make Dgmc.Mc_id.Receiver_only 2 in
  Format.printf "@.receiver-only MC (subscribers), members 1 4 8:@.";
  List.iter
    (fun sw -> Dgmc.Protocol.join net ~switch:sw subscribers Dgmc.Member.Receiver)
    [ 1; 4; 8 ];
  Dgmc.Protocol.run net;
  assert (Dgmc.Protocol.converged net subscribers);
  print_tree net subscribers;
  (match Dgmc.Protocol.agreed_topology net subscribers with
  | Some tree ->
    (* A non-member (switch 11) publishes: two-stage delivery. *)
    let report = Mctree.Delivery.two_stage graph tree ~src:11 in
    Format.printf "  two-stage delivery from non-member 11 (contact %s):@."
      (match report.contact with Some c -> string_of_int c | None -> "-");
    List.iter
      (fun (d : Mctree.Delivery.delivery) ->
        Format.printf "    -> receiver %d: delay %.2f, %d hops@." d.receiver
          d.delay d.hops)
      report.deliveries
  | None -> ());

  (* 3. An asymmetric MC (Figure 1c) — one sender broadcasts to
     receivers over a source-rooted shortest-path tree. *)
  let broadcast = Dgmc.Mc_id.make Dgmc.Mc_id.Asymmetric 3 in
  Format.printf "@.asymmetric MC (broadcast), sender 3, receivers 6 10 11:@.";
  Dgmc.Protocol.join net ~switch:3 broadcast Dgmc.Member.Sender;
  List.iter
    (fun sw -> Dgmc.Protocol.join net ~switch:sw broadcast Dgmc.Member.Receiver)
    [ 6; 10; 11 ];
  Dgmc.Protocol.run net;
  assert (Dgmc.Protocol.converged net broadcast);
  print_tree net broadcast;

  (* The signaling bill for everything above. *)
  let totals = Dgmc.Protocol.totals net in
  Format.printf
    "@.signaling totals: %d events, %d topology computations, %d MC \
     floodings, %d link messages@."
    totals.events totals.computations totals.mc_floodings totals.messages;
  Format.printf "convergence of the last burst: %s@."
    (match Dgmc.Protocol.convergence_rounds net with
    | Some r -> Format.asprintf "%.2f rounds" r
    | None -> "n/a")
