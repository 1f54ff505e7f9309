(** Undirected weighted network graph with link up/down state.

    Nodes are switch identifiers [0 .. n_nodes - 1].  Edge weights model
    the link cost used by routing (e.g. propagation delay); they are
    strictly positive.  Links can be taken down and brought back up
    without losing their weight, which models link failures as seen by a
    link-state routing protocol. *)

type t

type edge = { u : int; v : int; weight : float }
(** An undirected edge; [u < v] in all values returned by this module. *)

val create : int -> t
(** [create n] is an edgeless graph on nodes [0 .. n-1]. *)

val copy : t -> t
(** Independent deep copy (mutations do not propagate).  The copy's
    {!version} starts at [0] and its {!memo_search} memo starts empty:
    it never answers with a result computed over [t]. *)

val n_nodes : t -> int

val version : t -> int
(** Mutation counter: [0] for a fresh graph, then bumped by every
    {!add_edge} and by every {!set_link} that flips a link's state.  A
    {!set_link} to the link's current state and all reads leave it
    unchanged.  Two equal versions of the same graph value therefore
    describe the same live topology, so results computed over the graph
    may be memoised under its version. *)

val memo_hop_diameter : t -> (t -> int) -> int
(** [memo_hop_diameter g compute] is [compute g], evaluated at most once
    per {!version}: the cache behind {!Bfs.hop_diameter}.  A racing
    second evaluation stores an equal value. *)

val memo_search :
  t ->
  int ->
  (t -> int -> float array * int array) ->
  float array * int array
(** [memo_search g src compute] is [compute g src], evaluated at most
    once per ({!version}, [src]): the memo behind {!Dijkstra.run}.  The
    stored result is returned to every later caller at the same version,
    so it must never be mutated.  A mutation that moves the version
    drops every stored result; the first search at the new version
    allocates [n] empty slots.  Domains racing on one unmutated graph
    store equal values. *)

val add_edge : t -> int -> int -> weight:float -> unit
(** Adds an (up) edge.  Raises [Invalid_argument] if the edge exists,
    [u = v], a node is out of range, or [weight <= 0]. *)

val has_edge : t -> int -> int -> bool
(** [true] iff the edge exists, up {e or} down. *)

val weight : t -> int -> int -> float
(** Weight of an existing edge (up or down).  Raises [Not_found]. *)

val link_is_up : t -> int -> int -> bool
(** [true] iff the edge exists and is up. *)

val set_link : t -> int -> int -> up:bool -> unit
(** Change the operational state of an existing edge; bumps {!version}
    only when the state changes.
    Raises [Not_found] if the edge does not exist. *)

val neighbors : t -> int -> (int * float) list
(** Live neighbours of a node with the connecting link's weight, in
    ascending node order. *)

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
(** [iter_neighbors g u f] calls [f v w] for each live neighbour [v] of
    [u] with the link's weight [w], in the same ascending order as
    {!neighbors}, without building a list.  A link's state is read when
    the walk reaches it, so a link [f] takes down before the walk gets
    there is skipped.  Allocates nothing. *)

type link
(** One edge's state record.  Both endpoints share it and {!set_link}
    flips it in place, so a record read once reports the edge's state at
    every later read: a transport can take it at send time and check it
    at arrival without a second lookup. *)

val link : t -> int -> int -> link
(** The record of an existing edge, up or down.  Raises [Not_found]. *)

val is_up : link -> bool
(** The edge's current state: {!link_is_up} without the lookup. *)

val links : t -> int -> (int * link) list
(** Every link of a node, up or down, with its neighbour, in the
    ascending order of {!neighbors}: the cached row every enumeration
    walks, returned without a copy or allocation, so a caller can walk
    it with its own recursion instead of a closure.  The list is shared:
    check {!is_up} on each link as the walk reaches it. *)

val degree : t -> int -> int
(** Number of live incident links. *)

val edges : t -> edge list
(** All live edges, each reported once with [u < v]. *)

val all_edges : t -> (edge * bool) list
(** All edges with their up/down state. *)

val n_edges : t -> int
(** Number of live edges. *)

val pp : Format.formatter -> t -> unit
