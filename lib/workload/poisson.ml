let membership rng ~n ~mc ~events ~mean_gap ~initial ~start () =
  if events < 0 then invalid_arg "Poisson.membership: negative event count";
  if mean_gap <= 0.0 then invalid_arg "Poisson.membership: mean_gap must be positive";
  List.iter
    (fun x ->
      if x < 0 || x >= n then invalid_arg "Poisson.membership: initial out of range")
    initial;
  let role order =
    match mc.Dgmc.Mc_id.kind with
    | Dgmc.Mc_id.Symmetric -> Dgmc.Member.Both
    | Dgmc.Mc_id.Receiver_only -> Dgmc.Member.Receiver
    | Dgmc.Mc_id.Asymmetric ->
      if order = 0 then Dgmc.Member.Sender else Dgmc.Member.Receiver
  in
  let seed_events =
    List.mapi
      (fun order switch ->
        { Events.time = start; action = Events.Join { switch; mc; role = role order } })
      initial
  in
  let members = ref (List.sort_uniq Int.compare initial) in
  let order = ref (List.length initial) in
  let rec generate acc time remaining =
    if remaining = 0 then List.rev acc
    else begin
      let time = time +. Sim.Rng.exponential rng ~mean:mean_gap in
      let non_members =
        List.filter (fun x -> not (List.mem x !members)) (List.init n (fun i -> i))
      in
      let can_join = non_members <> [] in
      let can_leave = List.length !members > 1 in
      let do_join =
        if can_join && can_leave then Sim.Rng.bool rng
        else if can_join then true
        else if can_leave then false
        else true (* n = 1 member and nothing to join: skip below *)
      in
      if do_join && can_join then begin
        let switch = Sim.Rng.pick rng non_members in
        members := List.sort Int.compare (switch :: !members);
        incr order;
        let e =
          {
            Events.time;
            action = Events.Join { switch; mc; role = role (!order - 1) };
          }
        in
        generate (e :: acc) time (remaining - 1)
      end
      else if (not do_join) && can_leave then begin
        let switch = Sim.Rng.pick rng !members in
        members := List.filter (fun x -> x <> switch) !members;
        let e = { Events.time; action = Events.Leave { switch; mc } } in
        generate (e :: acc) time (remaining - 1)
      end
      else List.rev acc
    end
  in
  seed_events @ generate [] start events
