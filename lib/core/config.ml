type bug = Skip_stale_withdrawal | Skip_stale_sender_flag | Skip_secondary_senders

type computation = Scratch | Incremental of { drift : float }

type t = {
  tc : float;
  t_hop : float;
  flood_mode : Lsr.Flooding.mode;
  reliability : Lsr.Flooding.reliability;
  computation : computation;
  inject : bug option;
  health : Health.Config.t option;
}

let atm_lan =
  {
    tc = 400e-6;
    t_hop = 4e-6;
    flood_mode = Lsr.Flooding.Hop_by_hop;
    reliability = Lsr.Flooding.default_reliability;
    computation = Incremental { drift = 1.5 };
    inject = None;
    health = None;
  }

let injects t bug =
  match (t.inject, bug) with
  | Some Skip_stale_withdrawal, Skip_stale_withdrawal
  | Some Skip_stale_sender_flag, Skip_stale_sender_flag
  | Some Skip_secondary_senders, Skip_secondary_senders ->
    true
  | (None | Some _), _ -> false

let wan = { atm_lan with tc = 100e-6; t_hop = 5e-3 }

let regimes = [ ("atm", atm_lan); ("wan", wan) ]

let round_length t ~graph =
  Lsr.Flooding.flood_diameter ~graph ~t_hop:t.t_hop +. t.tc

let validate t =
  match t.health with None -> Ok () | Some h -> Health.Config.validate h
