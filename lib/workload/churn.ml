type spec = {
  mc : Dgmc.Mc_id.t;
  members : int;
  moves : int;
  period : float;
  start : float;
  waves : int;
  wave_links : int;
  wave_period : float;
}

let initial_role (mc : Dgmc.Mc_id.t) order =
  match mc.kind with
  | Dgmc.Mc_id.Symmetric -> Dgmc.Member.Both
  | Dgmc.Mc_id.Receiver_only -> Dgmc.Member.Receiver
  | Dgmc.Mc_id.Asymmetric ->
    if order = 0 then Dgmc.Member.Sender else Dgmc.Member.Receiver

(* The live links that can fade now, in [Net.Graph.edges] order: those
   not in [cut] (a list of (u, v), u < v) whose loss leaves the graph
   connected with [cut] removed too.  Those are exactly the non-bridges
   of G - cut when G - cut is connected, and none when it is not, so one
   depth-first pass (Tarjan's low links) answers for every link.  Works
   on the static edge set: waves never overlap, so at any instant only
   the current wave's links are down. *)
let fade_candidates graph ~cut =
  let n = Net.Graph.n_nodes graph in
  let edges = Array.of_list (Net.Graph.edges graph) in
  let live =
    Array.map (fun (e : Net.Graph.edge) -> not (List.mem (e.u, e.v) cut)) edges
  in
  (* adj.(x): (neighbour, edge index) over the live links. *)
  let adj = Array.make n [] in
  Array.iteri
    (fun i (e : Net.Graph.edge) ->
      if live.(i) then begin
        adj.(e.u) <- (e.v, i) :: adj.(e.u);
        adj.(e.v) <- (e.u, i) :: adj.(e.v)
      end)
    edges;
  let disc = Array.make n (-1) and low = Array.make n 0 in
  let bridge = Array.make (Array.length edges) false in
  let clock = ref 0 in
  let rec visit x via =
    disc.(x) <- !clock;
    low.(x) <- !clock;
    incr clock;
    List.iter
      (fun (y, i) ->
        if i <> via then
          if disc.(y) < 0 then begin
            visit y i;
            low.(x) <- Int.min low.(x) low.(y);
            if low.(y) > disc.(x) then bridge.(i) <- true
          end
          else low.(x) <- Int.min low.(x) disc.(y))
      adj.(x)
  in
  if n > 0 then visit 0 (-1);
  if !clock < n then []
  else
    List.filteri (fun i _ -> live.(i) && not bridge.(i)) (Array.to_list edges)

let validate ~graph spec =
  let n = Net.Graph.n_nodes graph in
  if spec.members < 1 || spec.members > n then
    invalid_arg "Churn.generate: bad member count";
  if spec.moves < 0 then invalid_arg "Churn.generate: negative moves";
  if spec.moves > 0 && spec.members >= n then
    invalid_arg "Churn.generate: moves need a free switch to walk to";
  if spec.period <= 0.0 then invalid_arg "Churn.generate: period must be positive";
  if spec.start < 0.0 then invalid_arg "Churn.generate: negative start";
  if spec.waves < 0 then invalid_arg "Churn.generate: negative waves";
  if spec.waves > 0 && spec.wave_links < 1 then
    invalid_arg "Churn.generate: waves need wave_links >= 1";
  if spec.waves > 0 && spec.wave_period <= 0.0 then
    invalid_arg "Churn.generate: wave_period must be positive"

let generate rng ~graph spec =
  validate ~graph spec;
  let n = Net.Graph.n_nodes graph in
  let all = List.init n (fun i -> i) in
  (* Arrivals: members appear over one period. *)
  let seats = Sim.Rng.sample rng spec.members all in
  let walkers =
    (* (current switch, role, movable).  The asymmetric primary sender is
       the session anchor: everyone else roams around it. *)
    List.mapi
      (fun order switch ->
        let role = initial_role spec.mc order in
        let anchor =
          match spec.mc.Dgmc.Mc_id.kind with
          | Dgmc.Mc_id.Asymmetric -> order = 0
          | Dgmc.Mc_id.Symmetric | Dgmc.Mc_id.Receiver_only -> false
        in
        ref (switch, role, not anchor))
      seats
  in
  let arrivals =
    List.map
      (fun w ->
        let switch, role, _ = !w in
        {
          Events.time = spec.start +. Sim.Rng.float rng spec.period;
          action = Events.Join { switch; mc = spec.mc; role };
        })
      walkers
  in
  (* Moves: a walker migrates its attachment point to an adjacent free
     switch (radio handover); if none is adjacent, it re-appears at any
     free switch (long-range move). *)
  let occupied () = List.map (fun w -> let s, _, _ = !w in s) walkers in
  let moves = ref [] in
  for k = 0 to spec.moves - 1 do
    let time = spec.start +. (spec.period *. float_of_int (k + 1)) in
    let movable = List.filter (fun w -> let _, _, m = !w in m) walkers in
    if movable <> [] then begin
      let w = Sim.Rng.pick rng movable in
      let switch, role, m = !w in
      let taken = occupied () in
      let free x = not (List.mem x taken) in
      let adjacent =
        List.filter free (List.map fst (Net.Graph.neighbors graph switch))
      in
      let candidates = if adjacent <> [] then adjacent else List.filter free all in
      match candidates with
      | [] -> () (* every switch occupied: checked away by validate *)
      | _ ->
        let dst = Sim.Rng.pick rng candidates in
        w := (dst, role, m);
        moves :=
          { Events.time; action = Events.Join { switch = dst; mc = spec.mc; role } }
          :: { Events.time; action = Events.Leave { switch; mc = spec.mc } }
          :: !moves
    end
  done;
  (* Waves: bundles of simultaneous link fades, each healing after half a
     wave period, each chosen to keep the network connected — agreement
     at quiescence is only a fair demand on a connected, healed network,
     and every down has its up, so the schedule always ends healed. *)
  let waves = ref [] in
  for wv = 0 to spec.waves - 1 do
    let time = spec.start +. (spec.wave_period *. float_of_int (wv + 1)) in
    let heal = time +. (spec.wave_period /. 2.0) in
    let cut = ref [] in
    for _ = 1 to spec.wave_links do
      match fade_candidates graph ~cut:!cut with
      | [] -> () (* no further link can fade without partitioning *)
      | candidates ->
        let e = Sim.Rng.pick rng candidates in
        cut := (e.u, e.v) :: !cut;
        waves :=
          { Events.time = heal; action = Events.Link_up (e.u, e.v) }
          :: { Events.time; action = Events.Link_down (e.u, e.v) }
          :: !waves
    done
  done;
  Events.sort (arrivals @ List.rev !moves @ List.rev !waves)
