(** Timed network-event schedules — the protocol-independent description
    of a workload.

    Generators ({!Bursty}, {!Poisson}, {!Session}) produce schedules;
    adapters inject them into a protocol instance.  Keeping the schedule
    first-class lets the same workload drive D-GMC and every baseline,
    which is what makes the comparison benchmarks fair. *)

type action =
  | Join of { switch : int; mc : Dgmc.Mc_id.t; role : Dgmc.Member.role }
  | Leave of { switch : int; mc : Dgmc.Mc_id.t }
  | Link_down of int * int
  | Link_up of int * int

type t = { time : float; action : action }

val sort : t list -> t list
(** Stable sort by time. *)

val count : t list -> int

val span : t list -> float
(** Latest event time minus earliest (0 for fewer than two events). *)

val apply_dgmc : Dgmc.Protocol.t -> t list -> unit
(** Schedule every event on the protocol's engine.  Link events are
    applied to the protocol's real graph at their scheduled time. *)

val pp : Format.formatter -> t -> unit
