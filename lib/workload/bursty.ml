let role_of (mc : Dgmc.Mc_id.t) order =
  match mc.kind with
  | Dgmc.Mc_id.Symmetric -> Dgmc.Member.Both
  | Dgmc.Mc_id.Receiver_only -> Dgmc.Member.Receiver
  | Dgmc.Mc_id.Asymmetric ->
    if order = 0 then Dgmc.Member.Sender else Dgmc.Member.Receiver

let joins rng ~n ~mc ~members ~window () =
  if members < 1 || members > n then invalid_arg "Bursty.joins: bad member count";
  if window <= 0.0 then invalid_arg "Bursty.joins: window must be positive";
  let all = List.init n (fun i -> i) in
  let chosen = Sim.Rng.sample rng members all in
  List.mapi
    (fun order switch ->
      let role = role_of mc order in
      {
        Events.time = Sim.Rng.float rng window;
        action = Events.Join { switch; mc; role };
      })
    chosen
  |> Events.sort
