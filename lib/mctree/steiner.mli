(** Steiner-tree heuristics for symmetric multipoint connections.

    Finding a minimum-cost tree spanning a given terminal set (the
    Steiner problem) is NP-hard; the paper relies on standard heuristics
    (its reference [9]).  Two classics are provided:

    - {!kmb} — Kou, Markowsky & Berman (1981): MST of the terminals'
      metric closure, re-expanded into the graph.  2(1 - 1/|T|)
      approximation.
    - {!sph} — Takahashi & Matsuyama (1980) shortest-path heuristic:
      grow the tree by repeatedly attaching the closest remaining
      terminal.  Same worst-case ratio, usually slightly better trees,
      and the natural basis for incremental member addition.

    Both return topologies satisfying {!Tree.is_valid_mc_topology} when
    all terminals are mutually reachable over live links, and raise
    [Failure] otherwise. *)

val kmb : Net.Graph.t -> int list -> Tree.t
(** [kmb g terminals] — KMB heuristic.  [terminals] must be non-empty,
    within range and duplicate-free.  Costs [k] Dijkstra runs for [k]
    terminals (one per terminal, for the metric closure). *)

val sph : Net.Graph.t -> int list -> Tree.t
(** [sph g terminals] — shortest-path heuristic, seeded at the smallest
    terminal id for determinism.  Each step attaches the first remaining
    terminal, in ascending id order, at the strictly least distance to
    the tree, along its shortest path to its nearest tree node, the
    smallest id on a tie.  Costs [k - 1] Dijkstra runs for [k]
    terminals, one per non-seed terminal (memoised per graph version).
    One array kernel keeps each remaining terminal's nearest tree node
    and distance, updated only for the nodes a new path adds, walks
    the path's predecessors into one edge-key buffer and builds the
    tree once, from that buffer sorted.  Raises
    [Failure "Steiner.sph: terminals not mutually reachable"] at the
    first step where no remaining terminal reaches the tree. *)

val lower_bound : Net.Graph.t -> int list -> float
(** A cheap lower bound on the optimal Steiner tree cost: the maximum of
    (a) the largest terminal-to-terminal shortest-path distance (any
    spanning tree contains such a path) and (b) half the metric-closure
    MST cost (the classic KMB-analysis bound: doubling an optimal
    Steiner tree yields a closure spanning walk).  Used by tests and the
    heuristic-quality ablation; the true optimum lies between this bound
    and the heuristics' results. *)
