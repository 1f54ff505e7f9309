(** Single-run experiment harness.

    One {e run} = one random graph + one workload + one protocol
    execution to quiescence, reduced to the per-event ratios the paper
    reports.  The figure sweeps ({!Figures}) aggregate runs over seeds.

    All randomness derives from the run's seed: the same seed always
    yields the same graph, workload and measurements. *)

type run = {
  n : int;  (** Switches. *)
  events : int;  (** Membership events injected (measured phase only). *)
  computations_per_event : float;
      (** Paper's "topology computations / proposals per event". *)
  floodings_per_event : float;  (** Paper's "flooding operations per event". *)
  messages_per_event : float;  (** Link-level LSA transmissions per event. *)
  convergence_rounds : float option;
      (** Time from first event to last state change, in rounds. *)
  converged : bool;  (** Network-wide agreement held at quiescence. *)
}

val graph_for : seed:int -> n:int -> Net.Graph.t
(** The experiment topology: Waxman graph, mean degree ≈ 3.5, connected
    (see DESIGN.md). *)

val bursty_run :
  ?trace:Sim.Trace.t ->
  ?metrics:Metrics.Registry.t ->
  ?series:Metrics.Series.t ->
  seed:int ->
  n:int ->
  config:Dgmc.Config.t ->
  members:int ->
  unit ->
  run
(** Experiments 1 and 2: [members] switches join a fresh symmetric MC
    within one flooding-diameter window — the conflicting-burst regime.
    [trace]/[metrics]/[series] are forwarded to {!Dgmc.Protocol.create}
    for observability; they never change the measured run. *)

val poisson_run :
  ?trace:Sim.Trace.t ->
  ?metrics:Metrics.Registry.t ->
  seed:int ->
  n:int ->
  config:Dgmc.Config.t ->
  events:int ->
  gap_rounds:float ->
  unit ->
  run
(** Experiment 3: an MC with 5 established members (set up and excluded
    from the measurement) churns through [events] membership events with
    mean inter-arrival [gap_rounds] rounds.  [trace] and [metrics] are
    forwarded to {!Dgmc.Protocol.create}. *)

val brute_force_bursty_run :
  seed:int -> n:int -> config:Dgmc.Config.t -> members:int -> run
(** The same bursty workload through the brute-force baseline
    ([convergence_rounds] reports its settle time; agreement checked the
    same way). *)

val mospf_bursty_run :
  seed:int -> n:int -> config:Dgmc.Config.t -> members:int -> sources:int -> run
(** The same membership workload through MOSPF: after the burst settles,
    [sources] member switches each send one datagram, triggering the
    data-driven computations; the computation ratio counts those. *)
