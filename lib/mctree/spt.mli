(** Source-rooted shortest-path trees, for asymmetric connections.

    This is the topology MOSPF computes per (source, group) pair and the
    natural choice for single-source asymmetric MCs such as video
    broadcast: the union of shortest paths from the root to every
    receiver, pruned to the receivers actually present. *)

val source_rooted : Net.Graph.t -> root:int -> receivers:int list -> Tree.t
(** [source_rooted g ~root ~receivers] — tree of shortest paths from
    [root] to each receiver.  The terminal set of the result is
    [root :: receivers].  Receivers already equal to [root] are allowed.
    Raises [Failure] if some receiver is unreachable, naming the least
    such receiver.

    One Dijkstra run from [root] (memoised per graph version).  Each
    receiver, in ascending order, walks its predecessor chain until it
    reaches a node already on the tree; the walked edges, the union of
    the root-to-receiver paths, build the tree once, by one sort of
    their keys. *)

val depth : Tree.t -> root:int -> int
(** Longest hop distance from the root to any tree node. *)

val receivers_cost : Net.Graph.t -> Tree.t -> root:int -> (int * float) list
(** Delay from the root to each terminal along tree paths (terminals
    other than the root), sorted by node id. *)
