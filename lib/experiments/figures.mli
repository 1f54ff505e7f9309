(** Figure and table regeneration (paper §4 and §5).

    Each function reproduces one evaluation artifact as data series —
    mean ± 95% CI over the seed set at each network size, exactly the
    reduction the paper plots.  Each result also has its text table
    here ({!bursty_table} and friends), which [dgmc_sim] prints under
    the section's heading and exports as CSV.

    The sweep parameters are [dgmc_sim]'s to choose (its defaults
    follow DESIGN.md's reconstruction of the paper's setup).  Every
    result is byte-identical for any [domains]: each cell derives its
    randomness from its own (seed, size), see {!Runner.Pool}. *)

type series = {
  label : string;
  points : (int * Metrics.Stats.summary) list;  (** (network size, summary). *)
}

type bursty_result = {
  proposals : series;  (** Figure (a): topology computations per event. *)
  floodings : series;  (** Figure (b): flooding operations per event. *)
  convergence : series;  (** Figure (c): convergence time in rounds. *)
  all_converged : bool;  (** Every run reached network-wide agreement. *)
}

val fig6 :
  domains:int -> sizes:int list -> seeds:int list -> members:int -> bursty_result
(** Experiment 1: [members]-member join bursts, computation-dominated
    regime ({!Dgmc.Config.atm_lan}).  [domains] spreads the
    (size × seed) cells over that many OCaml domains. *)

val fig7 :
  domains:int -> sizes:int list -> seeds:int list -> members:int -> bursty_result
(** Experiment 2: bursty joins, communication-dominated regime
    ({!Dgmc.Config.wan}). *)

type normal_result = {
  n_proposals : series;  (** Figure 8(a). *)
  n_floodings : series;  (** Figure 8(b). *)
  n_all_converged : bool;
}

val fig8 :
  domains:int ->
  sizes:int list ->
  seeds:int list ->
  events:int ->
  gap_rounds:float ->
  normal_result
(** Experiment 3: [events] sparse Poisson membership events, mean gap
    [gap_rounds] rounds. *)

type comparison = {
  c_sizes : int list;
  dgmc_computations : series;
  brute_computations : series;
  mospf_computations : series;
  dgmc_floodings : series;
  brute_floodings : series;
  mospf_floodings : series;
}

val compare_protocols :
  domains:int ->
  sizes:int list -> seeds:int list -> members:int -> sources:int -> comparison
(** §4's claim quantified: per-event topology computations and floodings
    for D-GMC vs. the brute-force LSR protocol vs. MOSPF (with the given
    number of active sources) on identical bursty workloads. *)

type cbt_row = {
  strategy : string;  (** Core selection strategy, or "dgmc" row. *)
  tree_cost : float;
  max_link_load : int;  (** Heaviest-loaded link over the packet batch. *)
  mean_link_load : float;
      (** Mean load over the links that carried traffic — shared trees
          drive this toward [max_link_load] (every tree link carries
          every packet: traffic concentration), per-source trees spread
          it out. *)
  links_used : int;  (** Distinct links that carried at least one packet. *)
  mean_delay : float;  (** Mean sender-to-receiver delivery delay. *)
  control_messages : int;
}

val cbt_comparison : seed:int -> n:int -> receivers:int -> senders:int -> cbt_row list
(** §5's CBT trade-off: the D-GMC receiver-only shared tree vs. CBT
    trees under different core placements, loaded with the same batch
    of five packets per off-tree sender. *)

(** {1 Tables}

    Headers and rows of each artifact's table, as the [dgmc_sim] figure
    subcommands print them. *)

val ci : Metrics.Stats.summary -> string
(** A ["mean ± ci95"] cell. *)

val bursty_table : bursty_result -> Metrics.Table.t
(** Figures 6 and 7: switches, then (a) proposals, (b) floodings and
    (c) convergence per size. *)

val normal_table : normal_result -> Metrics.Table.t
(** Figure 8: switches, then (a) proposals and (b) floodings per size. *)

val comparison_table : comparison -> Metrics.Table.t
(** Computations then floodings per event for D-GMC, brute force and
    MOSPF, per size. *)

val cbt_table : cbt_row list -> Metrics.Table.t
(** One left-aligned row per configuration. *)
