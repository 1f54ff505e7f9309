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

(** How a switch computes a shared tree (symmetric and receiver-only
    MCs; asymmetric MCs always get a fresh source-rooted tree, see
    {!Compute}).  The protocol does not depend on the choice (paper §1).
    - [Scratch]: every computation runs SPH ({!Mctree.Steiner.sph}).
    - [Incremental { drift }]: graft joined members, prune left ones and
      repair dead branches of the current tree (§3.5), and recompute
      from scratch when the tree's cost exceeds [drift] times a fresh
      SPH tree's cost (§3.5's "deviates significantly"). *)
type computation = Scratch | Incremental of { drift : float }

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
  computation : computation;
      (** The tree computation; [Incremental { drift = 1.5 }] in every
          preset. *)
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

val regimes : (string * t) list
(** The two regimes by name, ["atm"] ({!atm_lan}) then ["wan"]
    ({!wan}): the spelling of a script's [config] directive, of
    [dgmc_sim --regime] and of a fuzz case's report. *)

val injects : t -> bug -> bool
(** [injects t bug] is [t.inject = Some bug]. *)

val round_length : t -> graph:Net.Graph.t -> float
(** [tf + tc] for the given network (paper §4.1). *)

val validate : t -> (unit, string) result
(** An enabled [health] section must itself validate.
    {!Protocol.create} enforces this. *)
