(** Array-backed binary min-heap.

    The heap is polymorphic in its element type; the ordering is fixed at
    creation time by a [cmp] function ([cmp a b < 0] means [a] is closer to
    the top).  Used by {!Event_queue} as the simulation calendar. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp]. *)

val add : 'a t -> 'a -> unit
(** [add h x] inserts [x].  O(log n). *)

val peek : 'a t -> 'a option
(** Smallest element, if any, without removing it.  O(1). *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element.  O(log n). *)
