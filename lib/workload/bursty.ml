let default_role (mc : Dgmc.Mc_id.t) order _switch =
  match mc.kind with
  | Dgmc.Mc_id.Symmetric -> Dgmc.Member.Both
  | Dgmc.Mc_id.Receiver_only -> Dgmc.Member.Receiver
  | Dgmc.Mc_id.Asymmetric ->
    if order = 0 then Dgmc.Member.Sender else Dgmc.Member.Receiver

let joins rng ~n ~mc ~members ~window ?role ?(start = 0.0) () =
  if members < 1 || members > n then invalid_arg "Bursty.joins: bad member count";
  if window <= 0.0 then invalid_arg "Bursty.joins: window must be positive";
  let all = List.init n (fun i -> i) in
  let chosen = Sim.Rng.sample rng members all in
  List.mapi
    (fun order switch ->
      let role =
        match role with
        | Some f -> f switch
        | None -> default_role mc order switch
      in
      {
        Events.time = start +. Sim.Rng.float rng window;
        action = Events.Join { switch; mc; role };
      })
    chosen
  |> Events.sort
