(** Mobility-grade churn: attachment points that roam and links that fade.

    The other generators treat membership as a set that grows and
    shrinks in place.  Mobile hosts behave differently — an OLSR-style
    node keeps its session while its {e attachment point} migrates
    across the network, and radio fades take whole bundles of links
    down and back up underneath it.  This generator produces both
    patterns as an ordinary {!Events} schedule, so the same mobility
    workload drives the simulator, the monitor, and every baseline:

    - {b Arrivals}: [members] walkers join over one [period] at sampled
      seats (asymmetric MCs seat their primary sender first).
    - {b Moves}: every [period], one walker hands over — a [leave] at
      its seat and a [join] with the same role at an adjacent free
      switch (any free switch when boxed in).  The asymmetric primary
      sender anchors the session and never moves.
    - {b Waves}: every [wave_period], [wave_links] links fade together
      and heal half a period later.  Faded links are chosen to keep the
      network connected, and every down has its up, so the schedule
      ends healed and connected — the precondition for demanding
      agreement at quiescence. *)

type spec = {
  mc : Dgmc.Mc_id.t;
  members : int;  (** Walkers (1 to n; below n when [moves > 0]). *)
  moves : int;  (** Total attachment-point handovers. *)
  period : float;  (** Arrival window and gap between moves, seconds. *)
  start : float;  (** Schedule origin. *)
  waves : int;  (** Link-fade waves (0 for membership churn only). *)
  wave_links : int;  (** Links fading per wave. *)
  wave_period : float;  (** Gap between waves; each fade heals at half. *)
}

val generate : Sim.Rng.t -> graph:Net.Graph.t -> spec -> Events.t list
(** The schedule, sorted.  Deterministic for a given rng state and
    graph.  Raises [Invalid_argument] on a spec the graph cannot host
    (more walkers than switches, moves with no free switch, or
    non-positive periods). *)

(* dgmc-analyze: allow unused-export — test_oracles checks the one-pass
   bridge scan against a per-link connectivity search on cut graphs *)
val fade_candidates : Net.Graph.t -> cut:(int * int) list -> Net.Graph.edge list
(** The links a wave may fade next with the links of [cut] ((u, v)
    pairs, u < v) already down: every live link outside [cut] whose loss
    keeps the graph connected, in {!Net.Graph.edges} order ([[]] when the
    graph minus [cut] is already disconnected).  One pass over the graph
    (its bridges), however many links it has. *)
