(** Named counters with per-switch labels.

    A registry is a bag of exact counters keyed by [(name, switch)] —
    the [switch] label is optional, so the same name can exist both as a
    network-wide aggregate and per switch.

    A layer counts a fact in a {!counter} handle.  A counter's value is
    the count of every handle listed under its key, so two runs
    recording into one registry sum as if they shared one cell.

    A registry is {e not} domain-safe and is pinned to the domain that
    created it: a {!bump} on one of its handles from another domain
    raises [Invalid_argument] naming both domains.  Code
    that records as it runs must run on the owner; work spread over
    domains returns its results and the owner records them.

    {!snapshot} ordering is deterministic (sorted by name, then label),
    so it is stable across runs and domain counts.

    The discipline mirrors [Sim.Trace]: {!disabled} is a shared registry
    that records nothing, so instrumented code records unconditionally
    and an uninstrumented run pays one branch per call. *)

type t

val disabled : t
(** A shared registry that drops everything.  {!bump} on its handles
    allocates nothing and skips the owner check, so they may be bumped
    from any domain.  Its {!snapshot} is always empty. *)

val create : unit -> t

(** {2 Counter handles} *)

type counter

val counter : t -> ?switch:int -> string -> counter
(** A handle on the counter [name] (labelled [switch]): one int that
    its owner bumps and reads.  The registry lists it on its first
    {!bump}, so a handle never bumped leaves no key.  A handle from
    {!disabled} is private, and bumping it allocates nothing. *)

val bump : ?by:int -> counter -> unit
(** Add [by] (default [1]). *)

val count : counter -> int
(** This handle's own count, not its key's sum. *)

val per_switch : t -> int -> string -> counter array
(** [per_switch t n name]: [n] handles on [name], the [i]th labelled [i]. *)

val sum : counter array -> int
(** Their counts, added. *)

(** {2 Snapshots} *)

type key = { name : string; switch : int option }

(* dgmc-analyze: allow unused-export — test_telemetry "registry counters
   pinned" checks every counter the layers record against a fixture *)
val snapshot : t -> (key * int) list
(** Every counter with its value, sorted by name, then label (the
    unlabelled aggregate first). *)
