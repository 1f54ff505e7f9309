(** Per-switch link-state database: the switch's local image of the
    network.

    Under link-state routing every switch maintains a complete picture of
    the topology, learned from flooded link-event LSAs (paper §1).  A
    switch's D-GMC topology computations run against {e its own} image —
    which may briefly lag reality while link events propagate.

    Images are copy-on-write.  A run makes one {!boot} image, a private
    copy of the ground-truth graph, and every database {!create}d from
    it reads that one graph (and its sorted adjacency rows) until the
    first {!apply} that flips a link's state; only then does the
    database take its own copy.  Setting up n switches therefore costs
    one graph copy, not n, and a switch that never learns a link change
    never pays for one.

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
(** A boot image: the converged unicast database switches start from.
    No database mutates it, so one serves every switch of a run, and so
    do its memoised shortest-path searches ({!Net.Dijkstra.run}).  It is
    mutable state all the same (its adjacency rows and search memo are
    filled lazily), so a run must not share it with runs on other
    domains. *)

val boot : Net.Graph.t -> boot
(** [boot g] is a private deep copy of [g]: later changes to [g] (the
    ground truth a simulation mutates) never reach a database. *)

type t

val create : boot -> t
(** A database whose image is the boot image (switches boot with a
    converged unicast database; every link starts at version 0).  O(1):
    the image is shared until this database first flips a link. *)

val graph : t -> Net.Graph.t
(** The switch's current image: the boot image itself until the first
    flipping {!apply}, a private copy from then on.  Callers must not
    mutate it, nor hold it across an [apply]. *)

val copy : t -> t
(** An independent database with [t]'s image and versions.  O(links
    applied): the two share the image copy-on-write, so whichever flips
    a link first copies it. *)

val apply : t -> link_event -> unit
(** Update the image.  An event that changes a link's state copies a
    still-shared image first; one that only raises the link's version
    leaves the image shared.  Unknown links are ignored (robustness against
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
