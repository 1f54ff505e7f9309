(** Per-switch link-state database: the switch's local image of the
    network.

    Under link-state routing every switch maintains a complete picture of
    the topology, learned from flooded link-event LSAs (paper §1).  A
    switch's D-GMC topology computations run against {e its own} image —
    which may briefly lag reality while link events propagate — so each
    simulated switch owns an independent copy of the graph.

    Link events are {e versioned}: a link's state changes are totally
    ordered in real time, so the driver stamps the n-th change of a link
    with version n.  The database applies an event only when its version
    exceeds the last one applied for that link, which makes merging two
    images (database resynchronisation after a healed partition or a
    crash recovery) a simple per-link max — duplicates and stale
    re-floods are no-ops. *)

type link_event = { u : int; v : int; up : bool; version : int }
(** Payload of a non-MC LSA: the operational state change of one link
    (the paper's event description [D]).  [version] is the per-link
    monotone change counter assigned by the detecting side. *)

type t

val create : Net.Graph.t -> t
(** [create g] — local image initialised to a deep copy of [g] (switches
    boot with a converged unicast database; every link starts at
    version 0). *)

val graph : t -> Net.Graph.t
(** The switch's current image.  Callers must not mutate it. *)

val apply : t -> link_event -> unit
(** Update the image.  Unknown links are ignored (robustness against
    reordered information about links this image never had); events whose
    [version] does not exceed the last applied version for the link are
    ignored (stale or duplicate knowledge). *)

val version : t -> u:int -> v:int -> int
(** Last applied version for link [(u, v)]; 0 if no event was ever
    applied. *)

val entries : t -> link_event list
(** Every link this image has applied an event for, with its current
    state and version, sorted by endpoints.  This is the compact summary
    exchanged during database resynchronisation: links still at version 0
    are in boot state on both sides and need no exchange. *)

val pp_link_event : Format.formatter -> link_event -> unit
