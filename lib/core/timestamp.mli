(** Vector timestamps (paper §3).

    A timestamp is an n-tuple of natural numbers, where n is the number
    of switches; component [x] counts how many events have been heard
    from switch [x] for a given MC.  Timestamps are partially ordered
    componentwise; D-GMC uses them to detect topology proposals based on
    incomplete or obsolete information.

    Values are immutable: protocol state updates replace whole
    timestamps, which makes the saved-[old_R]-versus-current-[R]
    comparisons of the paper's algorithms trivially safe.

    {b Dense semantics, sparse storage.}  Every operation is specified
    over the dense n-component view above, and {!pp} and {!to_array}
    render exactly that view.  Storage keeps
    only the positive components, as (switch, count) pairs in ascending
    switch order with an implicit n: only the few switches that
    originate events for an MC ever count anything (paper §3), so a
    stamp costs what the protocol uses, not n.  {!zero} holds no pairs,
    and every operation except {!of_array}, {!to_array} and {!pp} runs
    in time linear in the number of nonzero components (plus a log
    factor for a single-component lookup) whatever n is.  An operation
    whose result equals one of its arguments may return that argument
    itself. *)

type t

val zero : int -> t
(** [zero n] is the n-component all-zero timestamp. *)

val size : t -> int

val get : t -> int -> int
(** Component access; raises [Invalid_argument] when out of range. *)

val bump : t -> int -> t
(** [bump t x] increments component [x]. *)

val raise_to : t -> int -> int -> t
(** [raise_to t x v] sets component [x] to [max (get t x) v] — used when
    an LSA's stamp conveys how many events its source had produced,
    which supersedes counting arrivals one by one. *)

val merge : t -> t -> t
(** Componentwise maximum — the least upper bound.  This is the paper's
    "E\[i\] = max(E\[i\], T\[i\])" update.  Sizes must agree. *)

val geq : t -> t -> bool
(** [geq a b] is the paper's [a >= b]: every component of [a] is at least
    the corresponding component of [b]. *)

val gt : t -> t -> bool
(** Strict: [geq a b] and [a <> b]. *)

val equal : t -> t -> bool

val sum : t -> int
(** Total number of events counted — handy in tests and traces. *)

val iter_nonzero : (int -> int -> unit) -> t -> unit
(** [iter_nonzero f t] calls [f x (get t x)] for every component [x]
    with a positive count, in ascending [x]: the dense view's walk with
    the zeros skipped. *)

val of_array : int array -> t
(** The stamp with this dense view; components must be non-negative
    and the array non-empty.  O(n). *)

val to_array : t -> int array
(** The dense view, as a fresh array.  O(n). *)

val pp : Format.formatter -> t -> unit
