(** Multipoint-connection topologies: trees embedded in the network graph.

    A [Tree.t] is the virtual topology of one multipoint connection — a
    set of undirected edges of the underlying network plus the set of
    {e terminal} nodes (the connection members it must span).  Protocol
    code ships trees inside LSAs as topology proposals and compares them
    for equality when checking network-wide agreement.

    A value of this type is not forced to be a valid tree — algorithms
    build edge sets incrementally — so {!is_tree}, {!spans_terminals} and
    {!is_embedded} exist to check the invariants tests and the protocol
    rely on.  {!is_tree} and {!spans_terminals} are one union-find pass
    over the edges, with scratch arrays spanning the edges' ids, so a
    check allocates O(ids spanned) words and builds no set.  Node ids
    are non-negative. *)

type t
(** Two sorted [int array]s and nothing else: the terminals ascending,
    and the edges as interleaved pairs [u0; v0; u1; v1; ...] with
    [u < v], ascending by [(u, v)], each pair once.  Every operation
    returns fresh arrays and none is written after its tree is built,
    so trees are immutable values, safe to share across domains. *)

val empty : t
(** No edges, no terminals. *)

val of_terminals : int list -> t
(** Terminals only (the degenerate connection before any edge exists;
    also a complete single-member connection). *)

val of_edges : terminals:int list -> (int * int) list -> t
(** Build from an explicit edge list. *)

val of_edge_keys : n:int -> terminals:int list -> int array -> int -> t
(** [of_edge_keys ~n ~terminals keys m] — the tree with [terminals]
    (ascending, no repeats) and the edges whose keys [u * n + v]
    ([u < v < n]) are the first [m] entries of [keys], in any order,
    repeats allowed: one sort of the keys builds the edge array.  The
    tree keeps no reference to [keys], which may be left reordered. *)

(** {1 Construction} *)

val filter_edges : (int -> int -> bool) -> t -> t
(** [filter_edges f t] — the edges [(u, v)] of [t] with [f u v], in one
    pass over the edge array; the terminals are kept. *)

val add_path : t -> int list -> t
(** Add every consecutive edge of a node path; an edge already present
    is kept once.  Raises [Invalid_argument] on a self-loop. *)

val add_terminal : t -> int -> t

val remove_terminal : t -> int -> t
(** Remove from the terminal set; the node's edges are kept (use
    {!prune} afterwards to trim the branch). *)

val with_terminals : t -> int list -> t
(** Replace the terminal set. *)

(** {1 Observation} *)

val terminals : t -> int list
(** Ascending. *)

val n_terminals : t -> int

val has_edges : t -> bool
(** [false] when the nodes of [t] are its terminals alone. *)

val nearest : Net.Dijkstra.result -> t -> except:int -> int
(** [nearest r t ~except] — the node of [t] other than [except] at the
    least finite distance in [r], the smallest id on a tie; [-1] when
    there is none.  Scans the edge array and the terminals. *)

val compare_edge : int * int -> int * int -> int
(** Lexicographic [Int.compare] on normalised [(lo, hi)] edges — the
    typed comparison for edge lists (deterministic, no polymorphic
    compare). *)

val edges : t -> (int * int) list
(** Each undirected edge once, as [(u, v)] with [u < v], sorted. *)

val mem_edge : t -> int -> int -> bool

val mem_node : t -> int -> bool

val is_terminal : t -> int -> bool

val neighbors : t -> int -> int list
(** The nodes sharing an edge with the given one, ascending; a scan of
    the edge array. *)

val cost : Net.Graph.t -> t -> float
(** Sum of the tree edges' weights in the graph.
    Raises [Not_found] if an edge is absent from the graph. *)

(** {1 Invariants} *)

val is_tree : t -> bool
(** The edge set is acyclic and connects all its incident nodes into one
    component (the empty edge set qualifies).  Decided by a union-find
    pass over the edge array: no edge closes a cycle, and the
    unions leave one component ([|E| = |V| - 1]). *)

val spans_terminals : t -> bool
(** Every terminal is a node of the tree, and all terminals lie in one
    connected component ([true] when there are 0 or 1 terminals and the
    terminal, if any, may be edge-free).  Decided by the same
    union-find pass as {!is_tree}: every terminal's root is the least
    terminal's, so two or more terminals fail when any of them has no
    edge. *)

val is_embedded : Net.Graph.t -> t -> bool
(** Every tree edge is a live link of the graph. *)

val is_valid_mc_topology : Net.Graph.t -> t -> bool
(** Conjunction of {!is_tree}, {!spans_terminals} and {!is_embedded}:
    what a correct topology proposal must satisfy.  One union-find pass
    answers the first two; the graph is read only when both hold. *)

(** {1 Transformation} *)

val prune : t -> t
(** Repeatedly remove non-terminal leaves, so every remaining leaf is a
    terminal. *)

val fragment : t -> int -> t
(** [fragment t x] — the edges of [t] connected to [x] (none when [x]
    is on no edge), with [x] as the only terminal: one union-find pass
    and one filter of the edge array. *)

(** {1 Comparison and printing} *)

val fingerprint : t -> string
(** Compact canonical rendering ["T{u-v,…|t1,…}"] — equal trees produce
    equal strings.  Used as the per-MC tree digest in database
    resynchronisation summaries (a neighbor compares fingerprints instead
    of shipping whole trees) and in {!Check.Fingerprint}'s state
    hashing. *)

val compare : t -> t -> int
(** Total order: the terminal sets compared as ascending sequences, then
    the {!edges} lists, each lexicographically with a proper prefix
    first.  Every switch breaks equal-stamp proposal ties with it, so
    the order is part of the protocol.  It reads the two arrays: a
    comparison costs O(size) and allocates nothing (O(1) when both
    arguments are the same value). *)

val equal : t -> t -> bool
(** [compare a b = 0]: same terminals and same edges. *)

val to_string : t -> string
(** The one human rendering of a tree:
    ["tree terminals={t1, t2} edges=[u-v; ...]"], terminals and edges
    ascending.  Read off the two arrays into one [Bytes] of its exact
    length ({!Sim.Render}), without [Format] or a [Buffer], because
    traced runs render the tree of every install. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string} inside a horizontal box (so, like any box, it
    moves to a new line when it would open past the formatter's
    indentation limit inside an enclosing breaking box). *)
