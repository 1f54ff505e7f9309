(** Node-sequence paths and their cost against a graph. *)

type t = int list
(** A path as the list of visited nodes, e.g. [[3; 1; 4]] for
    3 → 1 → 4.  A single node is a valid (empty) path. *)

val cost : Graph.t -> t -> float
(** Sum of link weights along the path.  Raises [Not_found] if some hop
    has no edge (up or down). *)

val hops : t -> int
(** Number of links traversed. *)

val edges : t -> (int * int) list
(** Consecutive pairs, in path order. *)
