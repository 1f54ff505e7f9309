(** Protocol and simulation parameters.

    The paper's experiments are characterised by the relation between
    [tc] (time to compute a topology) and [tf] (the flooding diameter,
    itself [t_hop × hop-diameter]); presets for the two published regimes
    are provided.  A {e round} is [tf + tc] and is the unit in which
    convergence time is reported. *)

(** A historical protocol bug that the [inject] field re-introduces, so
    the {!module:Check} model checker and guided search can show they
    still catch it:
    - [Skip_stale_withdrawal]: [EventHandler] floods and installs a
      proposal even when [R] advanced during its computation (Figure 4
      lines 11-13 skipped).  Exhaustively shown to {e self-heal} on small
      configurations, because acceptance is gated on [stamp >= E].
    - [Skip_stale_sender_flag]: [ReceiveLSA] does not arm
      [make_proposal_flag] when the sender missed this switch's local
      events (Figure 5), so two concurrent joins can disagree forever.
    - [Skip_secondary_senders]: the from-scratch asymmetric tree spans
      only the receivers, leaving a sender-only member off it — the bug
      the protocol fuzzer first found. *)
type bug = Skip_stale_withdrawal | Skip_stale_sender_flag | Skip_secondary_senders

type t = {
  tc : float;  (** Topology-computation latency at a switch (seconds). *)
  t_hop : float;  (** Per-hop LSA transmission time (seconds). *)
  flood_mode : Lsr.Flooding.mode;
      (** [Hop_by_hop] (default) assumes lossless delivery; use
          [Reliable] (ack + retransmit) when running under a
          {!Faults.Plan} that can lose or reorder messages. *)
  reliability : Lsr.Flooding.reliability;
      (** Reliable-mode parameters handed to {!Lsr.Flooding.create}
          ({!Lsr.Flooding.default_reliability} in every preset). *)
  incremental : bool;
      (** Use incremental branch add/remove when possible (§3.5);
          [false] forces every computation from scratch. *)
  drift_threshold : float;
      (** Incrementally maintained trees are recomputed from scratch
          when their cost exceeds this multiple of a fresh SPH tree's
          cost (§3.5's "deviates significantly").  From-scratch shared
          trees (symmetric and receiver-only MCs) are always SPH
          ({!Mctree.Steiner.sph}). *)
  inject : bug option;
      (** Fault injection (see {!bug}).  [None] in every preset; never set
          it in a real run. *)
  health : Health.Config.t option;
      (** Opt-in link-health layer (hello-based failure detection, flap
          damping — DESIGN.md §3f).  [None] in every preset:
          without it scripted link events are applied to switch images
          directly; with it they only change ground truth and switches
          must detect them. *)
}

val atm_lan : t
(** Experiment-1 regime: computation dominates communication
    ([t_hop = 4 µs], [tc = 400 µs]), from the authors' ATM testbed
    measurements. *)

val wan : t
(** Experiment-2 regime: communication dominates computation
    ([t_hop = 5 ms], [tc = 100 µs]). *)

val injects : t -> bug -> bool
(** [injects t bug] is [t.inject = Some bug]. *)

val round_length : t -> graph:Net.Graph.t -> float
(** [tf + tc] for the given network (paper §4.1). *)

val validate : t -> (unit, string) result
(** An enabled [health] section must itself validate.
    {!Protocol.create} enforces this. *)
