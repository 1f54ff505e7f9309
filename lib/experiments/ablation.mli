(** Ablation studies of the design choices DESIGN.md calls out.

    The protocol is parameterised along several axes the paper discusses
    but does not sweep; these experiments quantify each choice so a user
    can pick deliberately:

    - §3.5 incremental updates vs from-scratch computation — tree quality
      given up for the cheaper updates;
    - KMB vs SPH Steiner heuristics — tree cost against the Steiner
      lower bound;
    - the drift threshold triggering from-scratch recomputation. *)

type incremental_row = {
  label : string;  (** "incremental" or "from-scratch". *)
  mean_cost_ratio : float;
      (** Mean over seeds of (final tree cost / fresh KMB cost for the
          same members): 1.0 = no quality loss. *)
  all_converged : bool;
}

val incremental_vs_scratch : seeds:int list -> incremental_row list
(** A burst-then-churn workload (n = 40, 20 churn events) once with
    incremental updates and once forcing every computation from
    scratch. *)

type heuristic_row = {
  algo : string;
  members : int;
  mean_cost_vs_bound : float;  (** Mean cost / Steiner lower bound. *)
}

val steiner_heuristics : seeds:int list -> heuristic_row list
(** KMB vs SPH cost across member-set sizes 5, 10 and 20 (n = 60).
    Timing is the ledger's business ([mctree.sph.self_s]), not this
    figure's. *)

type drift_row = {
  threshold : float;
  final_cost_ratio : float;  (** Final tree cost / fresh KMB cost. *)
  d_converged : bool;
}

val drift_threshold : seeds:int list -> drift_row list
(** Sweep of the drift threshold (1.05, 1.2, 1.5, 2 and 10) over a
    churn-heavy session (n = 40, 25 churn events). *)
