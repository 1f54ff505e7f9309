(** The link-health layer: how switches learn of link events when
    hellos, not scripts, tell them.

    Every switch probes each configured adjacency, up or down, with one
    hello per period over the flooding's wire, subject to the run's
    fault plan, until the config's horizon.  Each directed adjacency
    has a {!Health.Detector} (down after [k] silent periods), an
    optional {!Health.Damping} damper and a belief; {!Health.Config.reup}
    hellos heard in a row bring a down belief back up.  Hellos keep
    flowing whatever the belief, but not over an adjacency its switch
    holds suppressed, and a suppressed adjacency ignores the hellos it
    hears, until decay readmits it.

    A scripted link change touches ground truth only ({!link_change});
    the switches must discover it.  A switch whose belief changes stamps
    the event, abandons its transfers over a dead link, tells its own
    switch and, after an up verdict, exchanges MC state with the peer
    one hop later.  Every verdict is judged against ground truth and
    counted under the [health.*] names of the engine's registry.

    Hello rounds, down-verdict checks, readmissions, hello arrivals and
    the exchange are posted timers of the engine.
    [Protocol.create] attaches the layer when [Config.health] is set;
    it never runs under crash or partition windows. *)

type summary = {
  h_detections : int;
      (** Down verdicts that matched ground truth: the link was down
          when the verdict was made. *)
  h_recoveries : int;  (** Up re-declarations. *)
  h_false_positives : int;
      (** Down verdicts contradicting ground truth. *)
  h_latencies : float list;
      (** Detection latencies of the true down verdicts, sorted
          ascending. *)
  h_bound : float;  (** {!Health.Config.detect_bound} of the config. *)
  h_suppressed : int;  (** Adjacency directions suppressed right now. *)
  h_hellos : int;  (** Hellos put on the wire. *)
  h_flaps : int;  (** Down declarations across all switches. *)
}

type t

val create :
  engine:Sim.Engine.t ->
  graph:Net.Graph.t ->
  config:Health.Config.t ->
  t_hop:float ->
  flooding:Switch.payload Lsr.Flooding.t ->
  clock:Lsr.Lsdb.clock ->
  Switch.t array ->
  t
(** The layer over [switches], each probing its links of [graph] (up
    or down) in ascending peer order; switch by switch, the checks are
    armed and the first round sent at once.  Verdicts are stamped on
    [clock], the run's ground-truth link versions.  Raises
    [Invalid_argument] on a config {!Health.Config.validate} rejects. *)

val link_change : t -> int -> int -> up:bool -> unit
(** A scripted change of link [(u, v)]'s ground truth, already applied
    to the graph: record the instant detection latency is measured from
    (and, traced, a ["truth"] note).  No switch is told. *)

val suppressed_links : t -> (int * int) list
(** The links some endpoint holds under damping suppression, each once
    as [(lo, hi)], ascending. *)

val summary : t -> summary
(** The statistics since creation, summed over the [health.*] handles. *)
