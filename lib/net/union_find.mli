(** Disjoint-set forest with union by rank and path compression.
    Used by Kruskal's algorithm and connectivity checks. *)

type t

val create : int -> t
(** [create n] is [n] singleton sets [0 .. n-1]. *)

val find : t -> int -> int
(** Canonical representative of the element's set. *)

val union : t -> int -> int -> bool
(** Merge the two sets.  Returns [false] if they were already one set. *)

val n_sets : t -> int
(** Number of disjoint sets remaining. *)
