(** "Normal" traffic periods (paper §4.1, second method): events spread
    out in time.

    Membership events arrive with exponentially distributed gaps whose
    mean is large relative to a protocol round, so "most of the events
    are sufficiently separated that they are handled individually" —
    the regime of Experiment 3, where both overhead ratios should be
    minimal. *)

val membership :
  Sim.Rng.t ->
  n:int ->
  mc:Dgmc.Mc_id.t ->
  events:int ->
  mean_gap:float ->
  initial:int list ->
  start:float ->
  unit ->
  Events.t list
(** [membership rng ~n ~mc ~events ~mean_gap ~initial ~start ()] — a
    sequence of
    [events] join/leave events.  The generator tracks the member set:
    each event joins a uniformly chosen non-member or removes a member
    (50/50 when both are possible, forced otherwise, and never removes
    the last member so the MC stays alive for the whole run).
    [initial] seeds the member set with switches assumed already
    joined, each with a join event at time [start]; the generated
    events follow [start].  Roles follow the MC kind as in {!Bursty}. *)
