(** Scoped per-phase wall-clock and allocation attribution.

    {!enter}/{!leave} bracket a named phase; a phase entered while
    another is open is its child, and its wall/allocation totals roll up
    into the parent's child totals — so a {!snapshot} reports both
    inclusive and {e self} (= inclusive − children) figures per phase.
    Allocation is measured in minor words ([Gc.minor_words] deltas).

    The discipline mirrors [Sim.Trace]: {!disabled} is a shared
    singleton and both {!enter} and {!leave} on it are a single branch
    with zero allocation, so permanently-instrumented kernels (Dijkstra,
    MST, Steiner, CBT grafting, flooding dispatch, resync) cost nothing
    in ordinary runs.  Hot call sites use the closure-free pattern

    {[
      let run g src =
        let ph = Metrics.Phase.ambient () in
        Metrics.Phase.enter ph "net.dijkstra";
        match run_impl g src with
        | v -> Metrics.Phase.leave ph; v
        | exception e -> Metrics.Phase.leave ph; raise e
    ]}

    (a thunk-taking wrapper would allocate a closure even when profiling
    is off).

    Wall times are host-clock measurements: they vary run to run and are
    {e reported}, never fed back into simulation state, so determinism
    guarantees are untouched.

    A probe is not domain-safe; like [Registry], use one per domain.
    The {e ambient} probe is domain-local storage (defaulting to
    {!disabled}), which is how kernels deep in the call graph find the
    probe without threading a parameter through every signature. *)

type t

val disabled : t
(** A shared probe that ignores everything. *)

val create : unit -> t

val enter : t -> string -> unit
(** Open a phase.  No-op (one branch, zero allocation) on {!disabled}. *)

val leave : t -> unit
(** Close the innermost open phase and charge its wall/allocation to the
    phase's cell (and to its parent's child totals).  A [leave] with no
    open phase is counted in {!unbalanced_leaves} rather than raising —
    a profiling bug must never kill a run. *)

val unbalanced_leaves : t -> int

(** {2 Ambient probe} *)

val ambient : unit -> t
(** The calling domain's ambient probe; {!disabled} unless set. *)

val set_ambient : t -> unit

val with_ambient : t -> (unit -> 'a) -> 'a
(** Run with the ambient probe set to [t], restoring the previous probe
    afterwards (also on exceptions). *)

(** {2 Snapshots} *)

type row = {
  r_name : string;
  r_calls : int;
  r_wall_s : float;  (** Inclusive wall seconds. *)
  r_self_wall_s : float;  (** Inclusive minus children, clamped at 0. *)
  r_minor_words : float;  (** Inclusive minor-heap words allocated. *)
  r_self_minor_words : float;
}

val snapshot : t -> row list
(** One row per phase name, sorted by name. *)
