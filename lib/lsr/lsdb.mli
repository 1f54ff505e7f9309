(** Per-switch link-state database: the switch's local image of the
    network.

    Under link-state routing every switch maintains a complete picture of
    the topology, learned from flooded link-event LSAs (paper §1).  A
    switch's D-GMC topology computations run against {e its own} image —
    which may briefly lag reality while link events propagate.

    Images are interned per run.  A run makes one {!boot} store, a
    private copy of the ground-truth graph (the root) plus every image
    its databases have reached, keyed by the set of links whose state
    differs from the root.  Databases that know the same link states
    therefore read one graph, with its sorted adjacency rows and its
    memoised shortest-path searches ({!Net.Dijkstra.run}).  A published
    image is never mutated: an {!apply} that flips a link moves the
    database to another image, taken from the store or, on a miss,
    copied once from its current one.

    Link events are {e versioned}: a link's state changes are totally
    ordered in real time, so the driver stamps the n-th change of a link
    with version n ({!stamp}).  The database applies an event only when
    its version exceeds the last one applied for that link, which makes
    merging two images (database resynchronisation after a healed
    partition or a crash recovery) a simple per-link max — duplicates
    and stale re-floods are no-ops. *)

type link_event = { u : int; v : int; up : bool; version : int }
(** Payload of a non-MC LSA: the operational state change of one link
    (the paper's event description [D]).  [version] is the per-link
    monotone change counter assigned by the detecting side. *)

module Link_tbl : Hashtbl.S with type key = int * int
(** Tables keyed on a link as its ordered [(lo, hi)] endpoint pair. *)

type boot
(** A run's image store: the root image and every image a database
    created or copied from it has reached.  {!apply} adds to it, and the
    images' adjacency rows and search memo are filled lazily, so a boot,
    and every database created or copied from it, must stay on one
    domain.  It keeps every distinct image until the run drops it. *)

val boot : Net.Graph.t -> boot
(** [boot g] is a store whose root is a private deep copy of [g]: later
    changes to [g] (the ground truth a simulation mutates) never reach a
    database. *)

type t

val create : boot -> t
(** A database whose image is the root (switches boot with a converged
    unicast database; every link starts at version 0).  O(1). *)

val graph : t -> Net.Graph.t
(** The switch's current image, shared with every database of the same
    store that knows the same link states: the root itself while no link
    differs from it.  Callers must not mutate it. *)

val copy : t -> t
(** An independent database with [t]'s image and versions.  O(links
    applied): only the versions are copied, and [t] is left as it was. *)

val apply : t -> link_event -> unit
(** Update the image.  An event that changes a link's state moves the
    database to the store's image of its new link states (the root when
    none differs from it); one that only raises the link's version keeps
    the image.  Unknown links are ignored (robustness against
    reordered information about links this image never had); events whose
    [version] does not exceed the last applied version for the link are
    ignored (stale or duplicate knowledge). *)

val version : t -> u:int -> v:int -> int
(** Last applied version for link [(u, v)]; 0 if no event was ever
    applied. *)

type clock
(** The ground-truth change counter of every link. *)

val clock : unit -> clock
(** A clock at which every link is at version 0. *)

val copy_clock : clock -> clock
(** [copy_clock c] is an independent clock at [c]'s versions. *)

val stamp : clock -> int -> int -> up:bool -> link_event
(** [stamp c u v ~up] is the next change of the link between [u] and
    [v], in either orientation: its version is one above the last one
    [c] stamped for that link.  The event keeps the given [(u, v)]
    orientation.  Both endpoints of a change detect the same stamped
    event, and databases merge by per-link max ({!apply}). *)

val entries : t -> link_event list
(** Every link this image has applied an event for, with its current
    state and version, sorted by endpoints.  This is the compact summary
    exchanged during database resynchronisation: links still at version 0
    are in boot state on both sides and need no exchange. *)

val pp_link_event : Format.formatter -> link_event -> unit
