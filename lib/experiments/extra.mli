(** Extension experiments beyond the paper's three: sensitivity sweeps
    the evaluation section implies but does not run.

    - {!burst_size}: Experiment 1 fixes the burst at one session's
      arrivals; here the burst size itself sweeps, showing how the
      conflict-resolution overhead scales with the degree of conflict
      (the paper's "very busy periods" axis).
    - {!mc_independence}: §3.1 claims "protocol activities associated
      with different MCs proceed independently"; this measures per-MC
      overhead while the number of concurrently-bursting MCs grows —
      independence means the per-MC cost stays flat. *)

type burst_row = {
  members : int;  (** Burst size. *)
  proposals_per_event : Metrics.Stats.summary;
  floodings_per_event : Metrics.Stats.summary;
  convergence_rounds : Metrics.Stats.summary;
  all_converged : bool;
}

val burst_size : seeds:int list -> burst_row list
(** One row each for bursts of 2, 5, 10, 20 and 30 members, n = 60,
    computation-dominated regime. *)

type independence_row = {
  mcs : int;  (** Concurrently bursting connections. *)
  per_mc_computations : Metrics.Stats.summary;
      (** Computations per event of one MC (total / mcs / events-per-mc). *)
  per_mc_floodings : Metrics.Stats.summary;
  i_all_converged : bool;
}

val mc_independence : seeds:int list -> independence_row list
(** One row each for 1, 2, 4 and 8 concurrent MCs, n = 60, 6 members
    each. *)
