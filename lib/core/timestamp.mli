(** Vector timestamps (paper §3).

    A timestamp is an n-tuple of natural numbers, where n is the number
    of switches; component [x] counts how many events have been heard
    from switch [x] for a given MC.  Timestamps are partially ordered
    componentwise; D-GMC uses them to detect topology proposals based on
    incomplete or obsolete information.

    {b Ownership.}  A stamp is either {e frozen} or {e owned}.  Every
    stamp the pure operations below build is frozen, and a frozen stamp
    is never written again, so it can be shared freely: LSAs, saved
    [old_R]s, tombstones and snapshots all hold frozen stamps, which
    keeps the saved-[old_R]-versus-current-[R] comparisons of the
    paper's algorithms safe.  Owned stamps exist only for a switch's own
    [R], [E] and [membership_seen] ({!Mc_state.t}), which the
    [*_owned] operations update in place in a growable buffer.  One
    copy-on-write rule governs them:
    - any owned stamp that leaves its state field is frozen first with
      {!freeze} (an LSA's stamp, a computation's [old_R], a tombstone,
      an export, a snapshot, and both sides of a copied switch);
    - an in-place update never writes a frozen stamp: it copies it into
      a fresh owned buffer with room to spare and writes that, or writes
      an owned stamp in place when it has room;
    - a {!merge_owned} whose other argument already dominates adopts
      that argument, freezing it, and writes nothing.
    An in-place operation returns the stamp the state field must hold
    from then on: its argument, an owned copy of it, or (for
    {!merge_owned}) its other argument.  The pure operations never
    write a component of their arguments, but may return one: an owned
    stamp passed to {!merge} must be frozen first if the result is to
    outlive the state field, and an in-place operation on a frozen
    stamp is the pure update (it writes a fresh copy).

    {b Dense semantics, sparse storage.}  Every operation is specified
    over the dense n-component view above, and {!pp} and {!to_array}
    render exactly that view.  Storage keeps
    only the positive components, as (switch, count) pairs in ascending
    switch order with an implicit n: only the few switches that
    originate events for an MC ever count anything (paper §3), so a
    stamp costs what the protocol uses, not n.  {!zero} holds no pairs,
    and every operation except {!to_array} and {!pp} runs
    in time linear in the number of nonzero components (plus a log
    factor for a single-component lookup) whatever n is.  An operation
    whose result equals one of its arguments may return that argument
    itself.

    {b Cost of a comparison.}  Each stamp also holds the total of its
    components, which the in-place operations keep current.  A stamp
    covers another only if its total is at least as large, and equals
    it only if the totals are equal.  So {!geq}, {!gt} and {!equal}
    answer in O(1) when both arguments are one stamp or the totals rule
    the answer out, and walk the pairs once otherwise; {!gt} is one
    walk, not {!geq} then {!equal}.  {!merge} and {!merge_owned} make
    such a comparison each way, the second only when the other
    argument's total is strictly larger.  The record has four fields:
    the size, the pairs, the used-slot count with the frozen bit folded
    in, and the total. *)

type t

val zero : int -> t
(** [zero n] is the n-component all-zero timestamp. *)

val size : t -> int

val get : t -> int -> int
(** Component access; raises [Invalid_argument] when out of range. *)

val merge : t -> t -> t
(** Componentwise maximum — the least upper bound.  This is the paper's
    "E\[i\] = max(E\[i\], T\[i\])" update.  Sizes must agree. *)

val freeze : t -> t
(** [freeze t] marks [t] frozen, so no in-place operation writes it
    again, and returns it.  Call it on an owned stamp before the stamp
    leaves its state field.  Allocates nothing. *)

val bump_owned : t -> int -> t
(** [bump_owned t x] increments component [x], written into [t] when
    [t] is owned and has room, else into an owned copy.  Raises
    [Invalid_argument] when [x] is out of range. *)

val raise_owned : t -> int -> int -> t
(** [raise_owned t x v] sets component [x] to [max (get t x) v], in
    place as {!bump_owned} — used when an LSA's stamp conveys how many
    events its source had produced, which supersedes counting arrivals
    one by one.  Returns [t] unchanged, without writing, when component
    [x] is already at least [v]. *)

val merge_owned : t -> t -> t
(** {!merge} in place: [a] itself, unwritten, when it already covers
    [b]; [b], frozen, when [b] covers [a]; otherwise the componentwise
    maximum written into [a] when [a] is owned and has room, else into
    an owned copy.  [b] is never written. *)

val merge_owned_known : t -> t -> covered:bool -> t
(** [merge_owned_known a b ~covered] is [merge_owned a b] for a caller
    that has already computed [covered = geq b a], so that comparison
    is not made again: when [covered] it reads two totals and returns
    [a] if they tie (the stamps are equal) and [b], frozen, otherwise.
    ReceiveLSA uses it for line 10, [E = max(E, T)], after deciding
    [T >= E].  The result is unspecified when [covered] is not
    [geq b a]. *)

val geq : t -> t -> bool
(** [geq a b] is the paper's [a >= b]: every component of [a] is at least
    the corresponding component of [b]. *)

val gt : t -> t -> bool
(** Strict: [geq a b] and [a <> b]. *)

val equal : t -> t -> bool

val iter_nonzero : (int -> int -> unit) -> t -> unit
(** [iter_nonzero f t] calls [f x (get t x)] for every component [x]
    with a positive count, in ascending [x]: the dense view's walk with
    the zeros skipped. *)

val to_array : t -> int array
(** The dense view, as a fresh array.  O(n). *)

val to_sparse : t -> Sim.Trace.stamp
(** The stamp as a trace records it: its positive pairs.  A frozen
    stamp whose storage holds exactly those pairs shares its array,
    which nothing writes again; any other stamp gives a fresh copy, in
    time linear in the number of pairs.  Whoever reads the trace must
    not write a stamp's [nonzero]. *)

val pp : Format.formatter -> t -> unit
