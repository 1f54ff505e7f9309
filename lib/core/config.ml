type bug = Skip_stale_withdrawal | Skip_stale_sender_flag | Skip_secondary_senders

type t = {
  tc : float;
  t_hop : float;
  flood_mode : Lsr.Flooding.mode;
  reliability : Lsr.Flooding.reliability;
  incremental : bool;
  drift_threshold : float;
  inject : bug option;
  resync_deadline_hops : float;
  health : Health.Config.t option;
}

(* The resync deadline is derived, not hand-tuned: a session must outlive
   the reliable transport's worst-case giveup span (so a transport-failed
   neighbor always resolves before the deadline), plus one initial rto of
   headroom for the summary leg.  Under the default reliability this is
   508 + 4 = 512 hop times — the historical constant, now earned. *)
let derived_resync_deadline_hops rel =
  Lsr.Flooding.giveup_span_hops rel +. rel.Lsr.Flooding.rto

let atm_lan =
  {
    tc = 400e-6;
    t_hop = 4e-6;
    flood_mode = Lsr.Flooding.Hop_by_hop;
    reliability = Lsr.Flooding.default_reliability;
    incremental = true;
    drift_threshold = 1.5;
    inject = None;
    resync_deadline_hops =
      derived_resync_deadline_hops Lsr.Flooding.default_reliability;
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

let round_length t ~graph =
  Lsr.Flooding.flood_diameter ~graph ~t_hop:t.t_hop +. t.tc

let validate t =
  let span = Lsr.Flooding.giveup_span_hops t.reliability in
  if t.resync_deadline_hops < span then
    Error
      ((* dgmc-analyze: allow float-format — human-readable diagnostic *)
       Printf.sprintf
         "resync_deadline_hops (%g) is below the reliable transport's \
          worst-case giveup span (%g hop times for rto=%g rto_max=%g \
          max_retries=%d): a resync session could expire while its \
          transport still retries; raise the deadline or shrink the \
          retry budget"
         t.resync_deadline_hops span t.reliability.Lsr.Flooding.rto
         t.reliability.Lsr.Flooding.rto_max
         t.reliability.Lsr.Flooding.max_retries)
  else
    match t.health with
    | None -> Ok ()
    | Some h -> Health.Config.validate h
