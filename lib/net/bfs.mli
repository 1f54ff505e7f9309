(** Breadth-first search over live links: hop counts and connectivity.

    Hop distances determine flooding propagation times (each LSA hop costs
    one per-hop delay), as opposed to {!Dijkstra} weights which determine
    unicast routes. *)

val reachable : Graph.t -> int -> bool array
(** Nodes reachable from the source over live links. *)

val is_connected : Graph.t -> bool
(** [true] iff every node is reachable from node 0 (vacuously true for
    graphs with fewer than two nodes). *)

val components : Graph.t -> int list list
(** Connected components over live links, each sorted ascending; the list
    of components is sorted by smallest member.  One O(n + m) pass. *)

val hop_diameter : Graph.t -> int
(** Greatest hop distance between any two mutually reachable nodes; [0]
    for graphs with fewer than two nodes.  Computed once per
    {!Graph.version} of the graph: an [n]-source search over a flat copy
    of the live links, then cached until an edge is added or a link
    flips. *)
