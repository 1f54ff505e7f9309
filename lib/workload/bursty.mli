(** Bursty event generation (paper §4.1, first method).

    "Events are clustered in a short period of time and conflict with
    each other.  Such very busy periods may be found at the beginning
    period of a multi-party conversation."  The generators place many
    membership events inside one small window, so switches keep
    detecting events while other switches' proposals are still in
    flight — the cascading-reaction regime the protocol must keep under
    control. *)

val joins :
  Sim.Rng.t ->
  n:int ->
  mc:Dgmc.Mc_id.t ->
  members:int ->
  window:float ->
  ?role:(int -> Dgmc.Member.role) ->
  ?start:float ->
  unit ->
  Events.t list
(** [joins rng ~n ~mc ~members ~window ()] — [members] distinct switches
    (chosen uniformly among the [n]) join [mc] at independent uniform
    times in [\[start, start + window)].  [role] maps a switch to its
    role (default: [Both] for symmetric MCs, [Receiver] for
    receiver-only, first chosen switch [Sender] and the rest [Receiver]
    for asymmetric). *)
