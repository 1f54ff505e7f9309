(** Whole-session lifecycles: arrival burst, steady churn, departure.

    Combines {!Bursty} and {!Poisson} into the life of one multi-party
    conversation — the workload shape the paper's introduction motivates
    (conferences, video distribution, replicated services): everybody
    arrives within a short window, membership churns slowly during the
    session, and the session drains at the end. *)

type phases = {
  arrivals : Events.t list;
  churn : Events.t list;
  departures : Events.t list;
}

val lifecycle :
  Sim.Rng.t ->
  n:int ->
  mc:Dgmc.Mc_id.t ->
  participants:int ->
  arrival_window:float ->
  churn_events:int ->
  churn_mean_gap:float ->
  departure_window:float ->
  unit ->
  phases
(** Arrival burst starts at time 0; churn starts one arrival window
    later; departures (of whoever is a member by then) fill a final
    window after the churn.  The phases are returned separately so a
    harness can quiesce and reset counters between them, and
    concatenate them when it wants the full schedule. *)

val all : phases -> Events.t list
(** The three phases concatenated in time order. *)

