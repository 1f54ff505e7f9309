(** A D-GMC network: all switches, the shared flooding substrate, event
    injection, and the measurements the paper's evaluation reports.

    This is the top-level façade of the library.  Typical use:

    {[
      let rng = Sim.Rng.create 42 in
      let g = Net.Topo_gen.waxman rng ~n:40 in
      let net = Protocol.create ~graph:g ~config:Config.atm_lan () in
      let mc = Mc_id.make Symmetric 1 in
      Protocol.schedule_join net ~at:0.0 ~switch:3 mc Member.Both;
      Protocol.schedule_join net ~at:0.0 ~switch:17 mc Member.Both;
      Protocol.run net;
      assert (Protocol.converged net mc)
    ]} *)

type totals = {
  events : int;  (** Local events injected (join/leave/link per MC). *)
  computations : int;  (** Topology computations completed, network-wide. *)
  computations_withdrawn : int;
  mc_floodings : int;  (** MC LSA flooding operations. *)
  link_floodings : int;  (** Non-MC (link event) flooding operations. *)
  proposals_flooded : int;
  proposals_accepted : int;
  messages : int;
      (** First-copy per-link LSA transmissions — comparable across
          flooding modes (see {!Lsr.Flooding.messages_sent}). *)
  acks : int;  (** Reliable flooding: acknowledgements sent. *)
  retransmissions : int;  (** Reliable flooding: data copies retransmitted. *)
}

type t

val create :
  graph:Net.Graph.t ->
  config:Config.t ->
  ?faults:Faults.Plan.t ->
  ?engine:Sim.Engine.t ->
  ?trace:Sim.Trace.t ->
  ?metrics:Metrics.Registry.t ->
  ?series:Metrics.Series.t ->
  unit ->
  t
(** Build a network of [Net.Graph.n_nodes graph] switches, each booted
    with a converged link-state image of [graph].

    [faults] subjects every per-link LSA (and ack) transmission to the
    given fault plan — loss, duplication, reordering, jitter, crash and
    partition windows — in the engine's simulated time.  Pair it with
    [config.flood_mode = Reliable], or floods will silently lose LSAs
    and the network will not converge.

    [config.health] attaches the link-health layer ({!Link_health}):
    hello agents on every switch, and scripted link changes that touch
    ground truth only.  Hellos sense links only, so a plan with a crash
    or partition window ({!Faults.Plan.has_windows}) and
    [config.health] together are [Invalid_argument].

    [engine] runs the network on an existing calendar instead of a fresh
    one, so two networks share one clock ([Hierarchy.Hmc]'s intra and
    logical levels); the network then records into that engine's trace
    and registry, and passing [trace], [metrics] or an enabled [series]
    as well is [Invalid_argument].

    [trace] and [metrics] are handed once to the run's engine
    ({!Sim.Engine.create}); every switch, the flooding layer, the fault
    plan and an attached [Check.Monitor] read them from there.  An
    enabled [trace] captures the full causal story of a run: every
    flood starts with an [Lsa_originated] event (MC LSAs carry the MC
    id, advertised event and R stamp; link LSAs carry ["link-up"] /
    ["link-down"]), and the per-hop forwarding, delivery, protocol
    reaction and eventual [Topology_installed] it causes are chained to
    it through parent ids.  A traced fault plan also marks its windows
    ({!Faults.Plan.instrument}), scheduled only when tracing is on, so
    untraced runs stay byte-for-byte deterministic.  [metrics] is the
    registry every layer counts in, under [protocol.*], [switch.*], [flood.*], [faults.*] and
    [health.*] names: the counts behind {!totals} are its counter
    handles, so the two never disagree.

    An enabled [series] turns on the flight recorder: an engine probe
    samples [engine.queue_depth] after every executed event.  The probe
    only observes — the event calendar, protocol state and figure output
    are byte-identical with recording on or off — and a disabled series
    leaves the engine probe uninstalled entirely. *)

val engine : t -> Sim.Engine.t
(** The run's engine, which holds its trace and registry. *)

val faults : t -> Faults.Plan.t option
(** The fault plan delivery runs under, if any. *)

val add_observer : t -> (int -> unit) -> unit
(** Register a callback invoked after every protocol state change at any
    switch (member list or topology installed, state deleted), with the
    id of the switch that changed.  Used by the runtime invariant
    monitor ([Check.Monitor], which ignores the id) and by
    [Hierarchy.Hmc] to wake an area leader.  Observers must not inject
    events synchronously; schedule through the engine instead. *)

val graph : t -> Net.Graph.t
(** The real (ground-truth) topology. *)

val n_switches : t -> int

val switch : t -> int -> Switch.t

(** {1 Event injection} *)

val join : t -> switch:int -> Mc_id.t -> Member.role -> unit
(** Host join at the given ingress switch, {e now} (at the engine's
    current time). *)

val leave : t -> switch:int -> Mc_id.t -> unit

val schedule_join :
  t -> at:float -> switch:int -> Mc_id.t -> Member.role -> unit

val schedule_leave : t -> at:float -> switch:int -> Mc_id.t -> unit

val schedule_link_down : t -> at:float -> int -> int -> unit
(** At [at], take a live link down: the real graph changes, both
    endpoint switches detect it, flood a non-MC LSA each, and run
    [EventHandler] for the MCs whose local topology used the link.

    With [Config.health] set, the change touches {e ground truth only}:
    no switch is notified and nothing is flooded here — the hello agents
    must discover the silence, and the declaring endpoints originate the
    link LSAs themselves. *)

val schedule_link_up : t -> at:float -> int -> int -> unit
(** At [at], restore a link; endpoints flood non-MC LSAs (no MC LSAs: an
    MC topology is never improved reactively by a link recovery).  Under
    [Config.health], ground truth only — see {!schedule_link_down}. *)

(** {1 Running} *)

val run : ?max_events:int -> t -> unit
(** Advance the simulation until quiescence, or until [max_events]
    events have run. *)

(** {1 Measurements} *)

val totals : t -> totals
(** The counts since creation, or since the last {!reset_counters}: the
    layers' counter handles, summed, minus the baseline the reset stored. *)

val reset_counters : t -> unit
(** Store the current counts as {!totals}' baseline and clear the
    activity clock.  The handles, and so the registry, keep counting.
    Call between workload phases. *)

val convergence_rounds : t -> float option
(** [(last_change - first_event) / round_length] — the paper's
    convergence time in rounds (Figure 6(c)), from the first injected
    event to the last member-list or topology change at any switch since
    the last {!reset_counters}.  [None] until an event and a change have
    happened. *)

val health_summary : t -> Link_health.summary option
(** Aggregated link-health statistics since creation, summed over the
    switches' [health.*] handles; [None] when [Config.health] is unset. *)

(** {1 Agreement} *)

val converged : t -> Mc_id.t -> bool
(** No {!Terminal} law is violated for the MC: the agreement group over
    every switch ([quiescent], [terminal-R=E], [pending-duty],
    [agreement-members], [agreement-topology]) and the ground-truth
    group ([truth-members], [valid-topology], [terminals-match]) against
    the real graph and the member set the injected joins and leaves
    produced.  True when no switch holds state and the real member set
    is empty. *)

val divergence : t -> Mc_id.t -> string list
(** The violations {!converged} looks for, rendered with
    {!Terminal.to_string} in law order (empty when it holds) — for
    tests, debugging and [dgmc_sim script]'s [DIVERGED:] line. *)

val terminal_violations : t -> Terminal.violation list
(** Every {!Terminal} group: {!Terminal.check} for every MC a switch
    holds state for or an injected event named, then
    {!Terminal.suppress_install} over the damping-suppressed links —
    what the runtime monitor applies once the run has quiesced. *)

val agreed_topology : t -> Mc_id.t -> Mctree.Tree.t option
(** The common topology when {!converged} holds and at least one switch
    has state. *)
