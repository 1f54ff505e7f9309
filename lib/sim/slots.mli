(** Slot ids for an owner's parallel arrays, with a free list.

    An owner that keeps its records as columns of parallel arrays — the
    flooding layer's copies in flight and reliable transfers, a
    {!Jobs} table's pending jobs — takes an id for each new record and
    gives it back when the record ends.  Ids given back are reused last
    first, so the owner's arrays stay as deep as the most records live
    at once.  Taking and giving back allocate nothing once the free list
    has grown to that depth. *)

type t

val create : unit -> t
(** No id taken yet. *)

val take : t -> int
(** The id last given back, if any is free; else [used t], which then
    counts as used.  An owner grows its arrays when the id is past
    their end. *)

val give_back : t -> int -> unit
(** [give_back t id] frees [id], taken and not given back since. *)

val used : t -> int
(** Ids [0, used t) have been taken at least once. *)

val live : t -> int
(** Ids taken and not given back.  O(1). *)
