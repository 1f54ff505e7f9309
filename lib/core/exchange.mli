(** Database exchanges (extension): how a switch reconciles its
    link-state image and per-MC state with a neighbor's.  The paper
    assumes every LSA reaches every live switch; one cut off by a link
    failure or a crash window misses floods and would diverge forever.
    Both exchanges ship {!Resync} export rows and share one adoption
    rule: merge [R] and [E], take per-source membership where newer and
    a topology where {!Tiebreak.supersedes} says so, and re-propose
    where the reconciled state or image demands it ({!Revalidate}).

    This module sits below {!Switch}, whose procedures it calls back
    through [procs], a static record of top-level functions. *)

type t
(** A switch's crash-recovery session and [switch.resync*] counters,
    beside its databases.  A session is open until a delta echoing its
    id is applied, or a fresh recovery supersedes it. *)

type 'sw procs = {
  get_or_create : 'sw -> Mc_id.t -> Mc_state.t;
  install :
    'sw -> Mc_state.t -> Mc_id.t -> stamp:Timestamp.t -> tree:Mctree.Tree.t ->
    unit;
  start_triggered : 'sw -> Mc_id.t -> Mc_state.t -> unit;
  maybe_delete : 'sw -> Mc_id.t -> Mc_state.t -> unit;
  output : 'sw -> Switch_io.output -> unit;
}

val create : self:int -> engine:Sim.Engine.t -> lsdb:Lsr.Lsdb.t ->
  mcs:Mc_state.t Mc_id.Tbl.t -> tombstones:Tombstone.t -> t

val copy : t -> lsdb:Lsr.Lsdb.t -> mcs:Mc_state.t Mc_id.Tbl.t ->
  tombstones:Tombstone.t -> t
(** The same session over copied databases, with fresh counters. *)

val session : t -> int option

val pull : 'sw procs -> 'sw -> t -> peer:t -> unit
(** On link-up, as OSPF exchanges databases when an adjacency forms:
    merge (and re-flood) the peer's newer link entries, apply what a
    {!Resync.Delta} from it would carry, proposing at once for each MC
    it taught something, and re-propose where the image changed under
    an install. *)

val recover : 'sw procs -> 'sw -> t -> unit
(** When a crash window closes: open a session, superseding an open
    one, and [Send] a {!Resync.Summary} to each neighbor the image shows
    live (with none, no session opens).  MC LSAs are handled meanwhile:
    a computation on partial knowledge is withdrawn once a delta moves
    [R] under it.  The first delta echoing the session finishes it and
    proposes for every MC it flagged; a session whose summaries were
    all lost stays open, blocking nothing. *)

val receive : 'sw procs -> 'sw -> t -> Resync.msg -> unit
(** On a resynchronisation message.  A [Summary] is answered statelessly
    with a [Delta] of all it proves its origin is behind on (newer link
    versions are also adopted here).  A [Delta] that does not echo the
    open session is dropped as stale. *)
