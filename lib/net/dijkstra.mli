(** Single-source shortest paths over live links (Dijkstra's algorithm).

    Weights are the graph's link costs.  This powers every multicast
    tree algorithm in [Mctree] and the baselines' core selection and
    join routing. *)

type result = {
  dist : float array;  (** [dist.(v)] is the cost from the source to [v];
                           [infinity] when unreachable. *)
  pred : int array;
      (** [pred.(v)] is [v]'s predecessor on a shortest path from the
          source; [-1] for the source itself and unreachable nodes. *)
}

val run : Graph.t -> int -> result
(** [run g src] computes shortest paths from [src] to all nodes.

    Deterministic.  Relaxation is strict, so among equal-cost paths
    [v] keeps the predecessor that was {e settled} first at [v]'s final
    distance.  Nodes at equal distance settle in the order a binary heap
    keyed on distance alone yields them (the sift rules of the oracle's
    heap in [test/test_oracles.ml]: strict comparisons, left child
    before right, last slot moved to the root on pop); neighbours are
    relaxed in ascending id order.

    Memoised per (graph, {!Graph.version}, [src]) through
    {!Graph.memo_search}: every call at the same version and source
    returns the {e same} [dist] and [pred] arrays, shared by all
    callers.  A result is therefore read-only: no caller may write to
    its arrays.  Only a miss runs the search, inside the
    [net.dijkstra] phase, so that phase's call count is the number of
    searches actually run.

    A miss allocates the two result arrays, a bitmap and the heap's two
    arrays (about [4n] words for [n] nodes; the heap doubles in the
    rare run that holds more than [n] entries at once), plus the [n]
    memo slots on the first search at a new version, and nothing per
    heap operation or relaxation.  A hit allocates only the three-word
    result record. *)

val path : Graph.t -> src:int -> dst:int -> int list option
(** Node sequence of a shortest path from [src] to [dst], inclusive of
    both; [None] when unreachable. *)

val path_of_result : result -> src:int -> dst:int -> int list option
(** Extract a path from a precomputed {!result}. *)
