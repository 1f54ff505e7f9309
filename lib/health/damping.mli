(** BGP-style link-flap damping: exponential penalty decay with
    suppress/reuse hysteresis.

    Every down transition ("flap") adds [penalty] figure of merit; the
    accumulated figure decays exponentially with [half_life].  When it
    crosses [suppress] the link is administratively suppressed — the
    local interface is held down, hellos stop in both the sending and
    the accepting direction, and no further up/down LSAs are originated
    for the link — until decay brings the figure back under [reuse].

    All arithmetic is over caller-supplied simulated time; the module is
    deterministic and timer-free (the hello agent polls it at its own
    deterministic instants). *)

type config = {
  penalty : float;  (** Figure added per flap. *)
  suppress : float;  (** Suppress when the figure reaches this. *)
  reuse : float;  (** Lift suppression when decay reaches this. *)
  half_life : float;  (** Seconds for the figure to halve. *)
}

val validate : config -> (unit, string) result
(** Requires [0 < penalty], [0 < reuse < suppress] and [0 < half_life]. *)

type t

val create : config -> t

val flap : t -> now:float -> unit
(** Charge one down transition at time [now]. *)

val suppressed : t -> now:float -> bool
(** Whether the link is suppressed at [now] (decaying first, so a long
    calm period observed through this call lifts suppression). *)

val reuse_time : t -> now:float -> float option
(** Absolute time at which suppression will lift if no further flap
    occurs; [None] when not suppressed. *)

