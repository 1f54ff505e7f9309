(** Canonical textual digests of protocol values.

    The model checker ({!Explore}) prunes its search through delivery
    interleavings with a state-hash cache: two exploration prefixes that
    produce the same network state need not both be expanded.  That
    requires a {e canonical} encoding — one string per semantically
    identical state, independent of incidental identities such as
    message sequence numbers or hash-table iteration order.  Everything
    here sorts its components and prints through deterministic
    pretty-printers. *)

val members : Dgmc.Member.t -> string
(** Ascending [id:role] pairs. *)

val mc_id : Dgmc.Mc_id.t -> string

val mc_lsa : Dgmc.Mc_lsa.t -> string
(** Source, event, MC, proposal, member snapshot and stamp — the full
    payload identity.  Two LSAs with equal fingerprints are
    interchangeable for every receiver. *)

val link_event : Lsr.Lsdb.link_event -> string

val graph_links : Net.Graph.t -> string
(** The up/down state of every edge (weights are static, so state is the
    only varying part of a link-state image). *)

val switch : Dgmc.Switch.t -> string
(** Complete protocol state of one switch: every MC snapshot (sorted by
    MC id), its tombstones (when it has any), the link-state image and
    database, and its open crash-recovery session's id. *)
