(** The brute-force LSR-based MC protocol (paper §2).

    The naive way to extend link-state routing to multipoint
    connections: membership changes are flooded in LSAs and {e every}
    switch, upon receiving one, recomputes the MC topology against its
    local database.  The protocol is trivially correct and as general as
    D-GMC, but "in a network with n switches, a single event could
    trigger n redundant computations for every existing MC" — the
    overhead D-GMC is designed to eliminate.  This implementation exists
    to reproduce that comparison.

    The same simulation engine, flooding substrate and topology
    algorithms as D-GMC are used, so the counters are directly
    comparable.

    The simulated cost is charged in full: every switch schedules its
    own computation [tc] after each membership LSA, [computations]
    counts one per switch per LSA, and each switch stores its own
    topology.  The simulator's CPU work is not repeated, though: while
    the graph is connected, the tree for a given ({!Net.Graph.version},
    MC, member set) is computed once and shared by every switch that
    asks for it (trees are immutable).  On a partitioned graph each
    switch computes its own, since the result then depends on which side
    it is on. *)

type t

val create : graph:Net.Graph.t -> config:Dgmc.Config.t -> unit -> t

val engine : t -> Sim.Engine.t

(** {1 Events} *)

val join : t -> switch:int -> Dgmc.Mc_id.t -> Dgmc.Member.role -> unit

val leave : t -> switch:int -> Dgmc.Mc_id.t -> unit

val schedule_join :
  t -> at:float -> switch:int -> Dgmc.Mc_id.t -> Dgmc.Member.role -> unit

val schedule_leave : t -> at:float -> switch:int -> Dgmc.Mc_id.t -> unit

val run : t -> unit

(** {1 Measurements (same meanings as {!Dgmc.Protocol.totals})} *)

type totals = {
  events : int;
  computations : int;
  floodings : int;
  messages : int;
}

val totals : t -> totals

val converged : t -> Dgmc.Mc_id.t -> bool
(** All switches agree on members and topology for the MC. *)

val topology : t -> switch:int -> Dgmc.Mc_id.t -> Mctree.Tree.t option
