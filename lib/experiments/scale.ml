type row = {
  protocol : string;
  n : int;
  areas : int;
  floodings_per_event : float;
  messages_per_event : float;
  reach_per_event : float;
  converged : bool;
}

let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

(* A sparse membership schedule confined to the first three areas, so
   the hierarchy's locality has something to exploit (a global
   conference would touch every area no matter what). *)
let schedule rng ~partition ~events ~gap =
  let pool = List.concat [ partition.(0); partition.(1); partition.(2) ] in
  let members = ref [] in
  List.init events (fun i ->
      let at = float_of_int (i + 1) *. gap in
      let joinable = List.filter (fun s -> not (List.mem s !members)) pool in
      let do_join =
        match (joinable, !members) with
        | [], _ -> false
        | _, [] | _, [ _ ] -> true
        | _ -> Sim.Rng.bool rng
      in
      if do_join then begin
        let s = Sim.Rng.pick rng joinable in
        members := s :: !members;
        `Join (at, s)
      end
      else begin
        let s = Sim.Rng.pick rng !members in
        members := List.filter (fun x -> x <> s) !members;
        `Leave (at, s)
      end)

let per_event x events = float_of_int x /. float_of_int events

let hier_vs_flat ~domains ~seeds ~areas ~per_area ~events =
  if areas < 3 then invalid_arg "Scale.hier_vs_flat: the workload needs 3 areas";
  let n = areas * per_area in
  let config = Dgmc.Config.atm_lan in
  (* One task per seed; both protocols run inside the task so the pair
     shares its topology.  Results come back in seed order. *)
  let samples =
    Runner.Pool.map ~domains
      (fun seed ->
        let rng = Sim.Rng.create (seed * 977) in
        let graph, partition = Net.Topo_gen.clustered rng ~areas ~per_area in
        let round = Dgmc.Config.round_length config ~graph in
        let gap = 50.0 *. round in
        let plan = schedule (Sim.Rng.create (seed + 4242)) ~partition ~events ~gap in
        (* Flat D-GMC on the full graph. *)
        let flat = Dgmc.Protocol.create ~graph:(Net.Graph.copy graph) ~config () in
        List.iter
          (function
            | `Join (at, s) ->
              Dgmc.Protocol.schedule_join flat ~at ~switch:s mc Dgmc.Member.Both
            | `Leave (at, s) -> Dgmc.Protocol.schedule_leave flat ~at ~switch:s mc)
          plan;
        Dgmc.Protocol.run flat;
        let ft = Dgmc.Protocol.totals flat in
        let flat_row =
          {
            protocol = "flat";
            n;
            areas;
            floodings_per_event = per_event ft.mc_floodings events;
            messages_per_event = per_event ft.messages events;
            reach_per_event =
              per_event (ft.mc_floodings * (n - 1)) events;
            converged = Dgmc.Protocol.converged flat mc;
          }
        in
        (* Hierarchical D-GMC on the same topology. *)
        let hier = Hierarchy.Hmc.create ~graph ~partition ~config in
        List.iter
          (function
            | `Join (at, s) ->
              Hierarchy.Hmc.schedule_join hier ~at ~switch:s mc Dgmc.Member.Both
            | `Leave (at, s) -> Hierarchy.Hmc.schedule_leave hier ~at ~switch:s mc)
          plan;
        Hierarchy.Hmc.run hier;
        let ht = Hierarchy.Hmc.totals hier in
        let hier_row =
          {
            protocol = "hierarchical";
            n;
            areas;
            floodings_per_event =
              per_event (ht.intra_floodings + ht.logical_floodings) events;
            messages_per_event =
              per_event (ht.intra_messages + ht.logical_messages) events;
            reach_per_event =
              per_event
                ((ht.intra_floodings * (per_area - 1))
                + (ht.logical_floodings * (areas - 1)))
                events;
            converged = Hierarchy.Hmc.converged hier mc;
          }
        in
        (flat_row, hier_row))
      seeds
  in
  let mean f rows = Metrics.Stats.mean (List.map f rows) in
  let reduce protocol rows =
    {
      protocol;
      n;
      areas;
      floodings_per_event = mean (fun r -> r.floodings_per_event) rows;
      messages_per_event = mean (fun r -> r.messages_per_event) rows;
      reach_per_event = mean (fun r -> r.reach_per_event) rows;
      converged = List.for_all (fun r -> r.converged) rows;
    }
  in
  [
    reduce "flat" (List.map fst samples);
    reduce "hierarchical" (List.map snd samples);
  ]

let table rows =
  {
    Metrics.Table.align = [ Metrics.Table.Left ];
    headers =
      [
        "protocol"; "switches"; "floodings/event"; "messages/event";
        "reach/event"; "converged";
      ];
    rows =
      List.map
        (fun r ->
          [
            r.protocol;
            string_of_int r.n;
            Metrics.Table.cell_f r.floodings_per_event;
            Metrics.Table.cell_f r.messages_per_event;
            Metrics.Table.cell_f r.reach_per_event;
            string_of_bool r.converged;
          ])
        rows;
  }
