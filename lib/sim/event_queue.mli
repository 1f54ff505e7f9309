(** Simulation calendar: a time-ordered queue of pending actions.

    Ties in time are broken FIFO (by insertion order), which keeps runs
    deterministic.  Scheduled actions can be cancelled through their
    handle; cancellation is lazy (O(1)) and cancelled entries are skipped
    when popped. *)

type 'a t
(** A calendar whose entries carry payloads of type ['a]. *)

type handle
(** Identifies a scheduled entry, for cancellation and status queries. *)

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> handle
(** [schedule q ~time x] enqueues [x] to fire at [time].  Raises
    [Invalid_argument] on a non-finite time. *)

val cancel : handle -> unit
(** Cancel the entry; popping will silently skip it.  Idempotent.  A
    cancel that arrives after the entry fired leaves {!length}
    unchanged. *)

val is_cancelled : handle -> bool

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest live entry, or [None] if the queue
    holds no live entries. *)

val peek_time : 'a t -> float option
(** Fire time of the earliest live entry, discarding any cancelled entries
    encountered along the way. *)

val length : 'a t -> int
(** Number of live (non-cancelled) entries.  O(1). *)
