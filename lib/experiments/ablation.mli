(** Ablation studies of the design choices DESIGN.md calls out.

    The protocol is parameterised along several axes the paper discusses
    but does not sweep; these experiments quantify each choice so a user
    can pick deliberately:

    - §3.5 incremental updates vs from-scratch computation — tree quality
      given up for the cheaper updates;
    - KMB vs SPH Steiner heuristics — cost/cpu trade-off;
    - the drift threshold triggering from-scratch recomputation;
    - hop-by-hop vs ideal flooding simulation — outcome equivalence and
      simulator speed. *)

type incremental_row = {
  label : string;  (** "incremental" or "from-scratch". *)
  mean_cost_ratio : float;
      (** Mean over seeds of (final tree cost / fresh KMB cost for the
          same members): 1.0 = no quality loss. *)
  all_converged : bool;
}

val incremental_vs_scratch :
  ?seeds:int list -> ?n:int -> ?churn_events:int -> unit -> incremental_row list
(** Session workload (burst + churn) once with incremental updates and
    once forcing every computation from scratch. *)

type heuristic_row = {
  algo : string;
  members : int;
  mean_cost_vs_bound : float;  (** Mean cost / Steiner lower bound. *)
  mean_time_us : float;  (** Mean wall-clock per computation. *)
}

val steiner_heuristics : ?seeds:int list -> ?n:int -> unit -> heuristic_row list
(** KMB vs SPH cost and cpu across member-set sizes 5, 10 and 20. *)

type drift_row = {
  threshold : float;
  final_cost_ratio : float;  (** Final tree cost / fresh KMB cost. *)
  d_converged : bool;
}

val drift_threshold : ?seeds:int list -> ?n:int -> unit -> drift_row list
(** Sweep of the drift threshold (1.05, 1.2, 1.5, 2 and 10) over a
    churn-heavy session. *)

type flooding_row = {
  mode : string;
  same_topology_as_hop_by_hop : bool;
  wall_time_ms : float;  (** Host time to simulate the scenario. *)
  sim_events : int;  (** Engine events executed. *)
}

val flooding_modes : ?seed:int -> ?n:int -> unit -> flooding_row list
(** Hop-by-hop vs ideal flooding on the same bursty scenario: identical
    protocol outcome on a static topology, different simulation cost. *)
