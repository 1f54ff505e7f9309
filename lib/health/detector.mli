(** Per-adjacency failure detectors fed by hello arrivals.

    A detector watches one directed adjacency (this switch listening for
    a neighbor's hellos) and answers a single question: how long may the
    line stay silent before the neighbor is declared unreachable?

    The rule is the classic OLSR-style one: silence longer than [k]
    hello periods (plus a grace allowance for transit time) means down.
    The tolerance is constant.

    All state advances on simulated time supplied by the caller; the
    module never reads a clock, so detection is deterministic. *)

type t

val create : k:int -> period:float -> grace:float -> start:float -> t
(** A fresh detector, down after [k] consecutive missed hellos, that
    treats [start] as the last heard-from time. *)

val note_arrival : t -> now:float -> unit
(** Record a hello arrival at simulated time [now]. *)

val timeout : t -> float
(** Silence tolerance in seconds: [k·period + grace]. *)

val deadline : t -> float
(** Absolute time at which continued silence becomes a down verdict:
    last arrival + {!timeout}.  Recomputing it after an arrival yields a
    later deadline; the caller re-arms its check timer from this. *)

val down : t -> now:float -> bool
(** [now >= deadline t]: the adjacency has been silent too long. *)

val reset : t -> now:float -> unit
(** Forget the past: treat [now] as the last arrival.  Used when an
    interface leaves administrative suppression — stale silence must not
    instantly re-fire the detector. *)

val max_timeout : k:int -> period:float -> grace:float -> float
(** The silence tolerance a [k]-missed detector reports — the static
    ingredient of the configured detection bound. *)
