(** Multipoint-connection identities and the three MC types (paper §1).

    An MC identifier travels in every MC LSA (the paper's [G] field) and
    carries the connection's type, since the type dictates both the
    membership semantics and the topology-computation strategy:

    - {e Symmetric}: every member both sends and receives (e.g. a
      teleconference); topology is a Steiner-style shared tree.
    - {e Receiver-only}: members are receivers of one or more sessions;
      non-member senders reach the tree through a contact node
      (two-stage delivery, as in CBT).
    - {e Asymmetric}: members are senders and/or receivers (e.g. video
      broadcast); topology is a source-rooted shortest-path tree. *)

type kind = Symmetric | Receiver_only | Asymmetric

type t = { id : int; kind : kind }

val make : kind -> int -> t

val equal : t -> t -> bool

val compare : t -> t -> int

module Tbl : Hashtbl.S with type key = t
(** The one MC-keyed hash table.  Its hash is [4 × id + kind], so which
    bucket an MC lands in, and with it the order [iter] and [fold] visit
    MCs, is fixed by the ids and the table's initial size alone.  Some
    outputs depend on that order (the switch's link-failure detection
    and pairwise resynchronisation walk their tables in it), so the hash
    and the callers' initial sizes are part of what pinned fixtures
    pin. *)

val sorted : 'a Tbl.t -> t list
(** The table's MCs in {!compare} order. *)

val kind_to_string : kind -> string

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string}; [None] for any other word. *)

val to_string : t -> string
(** The one rendering of an MC: [mc#ID(KIND)], e.g. [mc#3(symmetric)].
    Written into one [Bytes] of its exact length ({!Sim.Render}):
    traced runs render it on every emission. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
