(** Per-MC member lists with sender/receiver roles.

    A switch is a member when at least one of its attached hosts takes
    part in the connection (paper §1).  Roles matter only for asymmetric
    MCs; symmetric members are implicitly [Both] and receiver-only
    members [Receiver]. *)

type role = Sender | Receiver | Both

type t

val empty : t

val is_empty : t -> bool

val cardinal : t -> int

val join : t -> int -> role -> t
(** Add a member; joining again overwrites the role (the switch's hosts'
    aggregate interest changed). *)

val leave : t -> int -> t
(** Remove a member entirely; no-op when absent. *)

val mem : t -> int -> bool

val role : t -> int -> role option

val ids : t -> int list
(** All member switch ids, ascending. *)

val senders : t -> int list
(** Members with role [Sender] or [Both], ascending. *)

val receivers : t -> int list
(** Members with role [Receiver] or [Both], ascending. *)

val of_list : (int * role) list -> t

val equal : t -> t -> bool
(** Same members with the same roles.  Physically equal lists answer at
    once; otherwise the check looks each member up in the other list,
    which allocates only the lookup closure (no enumeration of either
    map). *)

val compare : t -> t -> int
(** Total order consistent with {!equal}, for keying maps on member
    sets. *)

val role_to_string : role -> string

val role_of_string : string -> role option
(** Inverse of {!role_to_string}; [None] for any other word. *)

val pp : Format.formatter -> t -> unit
