(** Timed network-event schedules — the protocol-independent description
    of a workload.

    Generators ({!Bursty}, {!Poisson}) produce schedules;
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

(** {2 Shape replay}

    The event histories the agreement claim is stated for: a switch
    joins an MC it is not in, leaves only an MC it is in, and the
    network ends healed.  One persistent fold over actions tracks that
    shape for the scenario linter ({!Script.lint}), the fuzzer and the
    backward search. *)

type shape
(** Which switches are members of which MC (by id), and which links are
    down, after some prefix of actions. *)

type misstep =
  | Join_of_member  (** The switch is already a member of the MC. *)
  | Leave_of_non_member
  | Already_down  (** A [Link_down] of a link that is down. *)
  | Already_up  (** A [Link_up] of a link that is up. *)

val empty_shape : shape
(** No member anywhere, every link up. *)

val step : shape -> action -> shape * misstep option
(** The shape after [action], and what was wrong with taking it there.
    A misstep changes nothing: the switch stays (or stays out of) the
    MC, the link stays down (or up).  Link endpoints are unordered. *)

val members : shape -> Dgmc.Mc_id.t -> int list
(** The MC's members, ascending. *)

val is_down : shape -> int -> int -> bool

val down_count : shape -> int

val well_formed : t list -> bool
(** The list, in order, has no {!Join_of_member} or
    {!Leave_of_non_member} step and leaves no link down. *)
