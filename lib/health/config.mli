(** Link-health layer configuration.

    The layer is strictly opt-in: a protocol instance without a health
    config behaves exactly as before (scripted link events are applied
    to switch images directly).  With one, scripted link changes become
    {e ground truth only} — switches must discover them through hello
    silence, and originate their own link LSAs.  The layer never runs
    under crash or partition windows ([Dgmc.Protocol.create]). *)

type damping = Damping.config

type t = {
  period : float;  (** Hello period, seconds. *)
  grace : float;  (** Transit allowance added to every tolerance, seconds. *)
  detector : int;  (** Consecutive missed hellos before down ([k]). *)
  reup : int;  (** Consecutive hellos heard before re-declaring up. *)
  damping : damping option;
  horizon : float;
      (** Absolute simulated time after which hello emission (and
          down-verdict evaluation) stops, so runs still quiesce.  Pick it
          past the last scripted event plus {!detect_bound} plus
          convergence slack. *)
}

val make :
  period:float ->
  detector:int ->
  ?reup:int ->
  ?damping:damping ->
  horizon:float ->
  unit ->
  t
(** [grace] is [period / 2].  Defaults: [reup = 2], no damping. *)

val validate : t -> (unit, string) result

val detect_bound : t -> float
(** Worst-case detection latency the configuration promises, from the
    moment a link's ground truth changes to the down declaration: the
    detector's maximum silence tolerance plus one period of send phase.
    The CI gate holds the observed p99 under this. *)

val describe : t -> string
(** One-line human summary for run headers. *)
