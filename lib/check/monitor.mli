(** Runtime invariant monitoring for full simulations.

    The model checker ({!Explore}) proves small configurations
    exhaustively; the monitor carries the same per-state laws
    ({!Invariant.check_switch}) and the C-monotonicity transition law
    into {e every} simulation run, at full scale, by sweeping all
    switches on each protocol state change ({!Dgmc.Protocol.add_observer}).

    Observer callbacks fire {e mid}-action, where [R <= E] does not yet
    hold (see {!Invariant.check_switch}); the monitor therefore checks
    the mid-action-safe laws synchronously on every change and schedules
    a coalesced zero-delay engine event to apply the full catalogue at
    the next action boundary.

    Attach before the first event; violations accumulate (deduplicated,
    capped) and are reported at the end — a monitor never interferes
    with the run it watches. *)

type t

val attach : Dgmc.Protocol.t -> t
(** Register on the protocol's observer hook and sweep once
    immediately.  When the protocol's engine carries an enabled trace
    ({!Sim.Engine.trace}), each first-seen violation is written to it as
    a ["violation"] note at the simulated time it was detected, so a
    captured trace places invariant breakage on the causal timeline. *)

val sweeps : t -> int
(** Number of sweeps performed so far. *)

val violations : t -> string list
(** Distinct violations observed, in first-seen order (capped at 100). *)

val ok : t -> bool

val check_terminal : t -> unit
(** After the run has quiesced, additionally apply every terminal law:
    the {!Dgmc.Terminal} groups for every MC, against the protocol's own
    truth and damping-suppressed links
    ({!Dgmc.Protocol.terminal_violations}).  Any failures join
    {!violations}. *)
