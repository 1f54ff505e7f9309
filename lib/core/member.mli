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
(** O(1). *)

val join : t -> int -> role -> t
(** Add a member; joining again overwrites the role (the switch's hosts'
    aggregate interest changed).  Copies the one array of the list, or
    returns it unchanged when the member already holds [role].  Member
    ids must lie within [min_int asr 2 .. max_int asr 2] (switch ids
    are small naturals). *)

val leave : t -> int -> t
(** Remove a member entirely; returns the list unchanged when absent. *)

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
(** Same members with the same roles.  A list is stored packed, as the
    ascending [int array] of its entries [id lsl 2 lor role], so each
    list has exactly one form: physically equal lists answer at once,
    and otherwise the check compares the two arrays' lengths and then
    their entries in order, allocating nothing. *)

val compare : t -> t -> int
(** Total order consistent with {!equal}, for keying maps on member
    sets: shorter lists first, then the packed entries compared
    lexicographically, so lists of one size order by their least
    differing member id, then role. *)

val role_to_string : role -> string

val role_of_string : string -> role option
(** Inverse of {!role_to_string}; [None] for any other word. *)

val to_string : t -> string
(** The one rendering of a list: [{id:role, ...}] in ascending id order,
    e.g. [{1:sender, 4:both}], [{}] when empty.  Written into one
    [Bytes] of its exact length ({!Sim.Render}), without [Format] or
    a [Buffer], because traced runs render a list per install. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
