(** Scalability experiment for the hierarchical extension (DESIGN.md §2,
    paper §2's closing remark).

    The flat protocol floods every event to all [n] switches; the
    hierarchical protocol floods an event inside its area and touches
    the [k]-node logical level only when an area's membership flips.
    This experiment runs the same sparse membership workload through
    both on the same clustered topology and reports the per-event
    signaling scope. *)

type row = {
  protocol : string;  (** "flat" or "hierarchical". *)
  n : int;  (** Total switches. *)
  areas : int;
  floodings_per_event : float;
      (** MC LSA floods (intra + logical for the hierarchy). *)
  messages_per_event : float;  (** Link-level LSA transmissions. *)
  reach_per_event : float;
      (** Mean number of switches receiving signaling per event — the
          scalability headline. *)
  converged : bool;
}

val hier_vs_flat :
  domains:int ->
  seeds:int list ->
  areas:int ->
  per_area:int ->
  events:int ->
  row list
(** [areas] × [per_area] switches, [events] sparse membership events
    confined to the first 3 areas ([areas] must be at least 3), one
    clustered graph per seed.  [domains] runs one seed per pool task;
    the rows are identical for any value. *)

val table : row list -> Metrics.Table.t
(** The hierarchy table: one left-aligned row per protocol. *)
