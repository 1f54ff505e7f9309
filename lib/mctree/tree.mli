(** Multipoint-connection topologies: trees embedded in the network graph.

    A [Tree.t] is the virtual topology of one multipoint connection — a
    set of undirected edges of the underlying network plus the set of
    {e terminal} nodes (the connection members it must span).  Values are
    immutable; protocol code ships them inside LSAs as topology proposals
    and compares them for equality when checking network-wide agreement.

    A value of this type is not forced to be a valid tree — algorithms
    build edge sets incrementally — so {!is_tree}, {!spans_terminals} and
    {!is_embedded} exist to check the invariants tests and the protocol
    rely on.  They read the canonical form ({!compare}'s sorted arrays,
    built once per value): {!is_tree} and {!spans_terminals} are one
    union-find pass over the edges, with scratch arrays spanning the
    edges' ids, so a check allocates O(ids spanned) words and builds no
    set. *)

module Int_set : Set.S with type elt = int
module Int_map : Map.S with type key = int

type t
(** Compare and hash trees only with {!equal} and {!compare}: a value
    carries a memo filled on first use, so polymorphic [=], [compare]
    and [Hashtbl.hash] on a tree, or on anything holding one, depend on
    whether the memo is filled, not only on the tree. *)

val empty : t
(** No edges, no terminals. *)

val of_terminals : int list -> t
(** Terminals only (the degenerate connection before any edge exists;
    also a complete single-member connection). *)

val of_edges : terminals:int list -> (int * int) list -> t
(** Build from an explicit edge list. *)

val canonical_keys : int array -> int -> int array
(** [canonical_keys keys m] — the first [m] entries of [keys], edge keys
    [u * n + v] with [u < v < n], as a fresh array in ascending order
    without repeats: the order of {!edges}, so a sum over it adds the
    weights in {!cost}'s order. *)

val of_canonical_keys : n:int -> terminals:int list -> int array -> t
(** [of_canonical_keys ~n ~terminals keys] — the tree with [terminals]
    (ascending, no repeats) and the edges [keys], a result of
    {!canonical_keys} on an [n]-node graph.  The canonical form is
    filled at once, from these arguments, and the tree keeps no
    reference to [keys]. *)

(** {1 Construction} *)

val add_edge : t -> int -> int -> t
(** Idempotent; raises [Invalid_argument] on a self-loop. *)

val remove_edge : t -> int -> int -> t

val add_path : t -> int list -> t
(** Add every consecutive edge of a node path. *)

val add_terminal : t -> int -> t

val remove_terminal : t -> int -> t
(** Remove from the terminal set; the node's edges are kept (use
    {!prune} afterwards to trim the branch). *)

val with_terminals : t -> int list -> t
(** Replace the terminal set. *)

(** {1 Observation} *)

val terminals : t -> Int_set.t

val nodes : t -> Int_set.t
(** Every node incident to an edge, plus every terminal. *)

val has_edges : t -> bool
(** [false] when the nodes of [t] are its terminals alone. *)

val nearest : Net.Dijkstra.result -> t -> except:int -> int
(** [nearest r t ~except] — the node of [t] other than [except] at the
    least finite distance in [r], the smallest id on a tie; [-1] when
    there is none.  Scans the nodes without building {!nodes}. *)

val compare_edge : int * int -> int * int -> int
(** Lexicographic [Int.compare] on normalised [(lo, hi)] edges — the
    typed comparison for edge lists (deterministic, no polymorphic
    compare). *)

val edges : t -> (int * int) list
(** Each undirected edge once, as [(u, v)] with [u < v], sorted. *)

val n_edges : t -> int

val mem_edge : t -> int -> int -> bool

val mem_node : t -> int -> bool

val is_terminal : t -> int -> bool

val neighbors : t -> int -> Int_set.t

val cost : Net.Graph.t -> t -> float
(** Sum of the tree edges' weights in the graph.
    Raises [Not_found] if an edge is absent from the graph. *)

(** {1 Invariants} *)

val is_tree : t -> bool
(** The edge set is acyclic and connects all its incident nodes into one
    component (the empty edge set qualifies).  Decided by a union-find
    pass over the canonical edges: no edge closes a cycle, and the
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

val path_between : t -> int -> int -> int list option
(** The unique tree path between two tree nodes, if both are present and
    connected. *)

val dfs_order : t -> root:int -> int list
(** Nodes reachable from [root] through tree edges, in deterministic
    depth-first order (smallest neighbour first).  [root] itself included. *)

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
    the order is part of the protocol.  Each tree builds its sorted
    terminals and edges once, on first use, as two int arrays; after
    that a comparison costs O(size) and allocates nothing (O(1) when
    both arguments are the same value). *)

val equal : t -> t -> bool
(** [compare a b = 0]: same terminals and same edges. *)

val to_string : t -> string
(** The one human rendering of a tree:
    ["tree terminals={t1, t2} edges=[u-v; ...]"], terminals and edges
    ascending.  Read off the canonical form with a [Buffer], without
    [Format], because traced runs render the tree of every install. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string} inside a horizontal box (so, like any box, it
    moves to a new line when it would open past the formatter's
    indentation limit inside an enclosing breaking box). *)
