(** Hierarchical D-GMC — the scalability extension the paper sketches.

    "LSR itself is generally intended for use in … an Autonomous System…
    Scalability can be addressed by introducing a routing hierarchy into
    large networks.  The combination of an LSR protocol and routing
    hierarchy is under consideration for the ATM PNNI standard.  In this
    paper, we present the basic D-GMC protocol; its extension to
    hierarchical networks is part of our ongoing work." (§2)

    This module is that extension, in the PNNI two-level style:

    - switches are statically grouped into {e areas}; every area runs
      the plain D-GMC protocol internally: one {!Dgmc.Protocol} over
      every intra-area link and no inter-area link, so each area is a
      component of its graph.  Floods cannot leave an area, and though
      every switch image holds all areas' links, every tree a switch
      computes stays inside its own area;
    - a {e logical network} with one node per area (connected where real
      inter-area links exist) runs a second {!Dgmc.Protocol} on the first
      one's engine, so both levels share one clock, at [3 *. t_hop] per
      logical hop; area [a]'s node stands for its designated {e area
      leader} (lowest switch id — a leader-election protocol would pick
      one dynamically), whom every logical state change at [a] wakes;
    - an area joins the logical MC while it has real members; the agreed
      logical topology is a tree of areas, each logical edge mapped to a
      concrete inter-area link;
    - each leader reads the logical tree and instructs the local
      endpoints of its incident mapped links — the {e gateways} — to join
      the area's MC, so the intra-area trees stitch into one global
      delivery tree: union of area trees plus mapped inter-area links.

    The scalability gain measured by the benchmarks: a membership event
    floods its own area (and the k-node logical level when area
    membership flips), not all n switches.

    Scope (documented restrictions): the area partition and inter-area
    links are static (no inter-area link failures; intra-area topology
    events would be handled by the intra-area {!Dgmc.Protocol} but are
    not wired to an injection API here, and the logical level, never
    seeing a link event, never resyncs), leaders are designated, not
    elected, and the link-health layer is not run.  Both levels record
    into one engine, whose sinks are disabled: the hierarchy runs
    unobserved. *)

type t

val create :
  graph:Net.Graph.t ->
  partition:int list array ->
  config:Dgmc.Config.t ->
  t
(** [create ~graph ~partition ~config] — [partition.(a)] lists area
    [a]'s switches; areas must be non-empty, disjoint, cover the graph,
    and each induce a connected subgraph.  Every pair of areas used by
    the logical level must be joined by at least one real link; the
    cheapest such link realises the logical edge.  Logical-level
    flooding takes [3 *. config.t_hop] per hop (logical LSAs traverse
    several real hops).  [Invalid_argument] if [config.health] is set. *)

(* dgmc-analyze: allow unused-export — test_hierarchy "cross-area
   scenario pinned" checks the logical level's 3 x t_hop timing *)
val engine : t -> Sim.Engine.t
(** The one engine both levels run on; its clock is the hierarchy's. *)

(* dgmc-analyze: allow unused-export — test_hierarchy "logical graph"
   checks one logical node per area, connected *)
val logical_graph : t -> Net.Graph.t

(** {1 Events} *)

val schedule_join :
  t -> at:float -> switch:int -> Dgmc.Mc_id.t -> Dgmc.Member.role -> unit

val schedule_leave : t -> at:float -> switch:int -> Dgmc.Mc_id.t -> unit

val run : t -> unit

(** {1 Measurements} *)

type totals = {
  events : int;  (** Host join/leave events injected. *)
  intra_floodings : int;  (** The intra {!Dgmc.Protocol}'s [mc_floodings]. *)
  logical_floodings : int;  (** The logical {!Dgmc.Protocol}'s [mc_floodings]. *)
  intra_messages : int;  (** The intra {!Dgmc.Protocol}'s [messages]. *)
  logical_messages : int;  (** The logical {!Dgmc.Protocol}'s [messages]. *)
  computations : int;  (** Topology computations, both levels. *)
  gateway_instructions : int;  (** Leader→gateway join/leave commands. *)
}

val totals : t -> totals

(** {1 Agreement} *)

(* dgmc-analyze: allow unused-export — test_hierarchy and the
   test_props stitched-tree property check the tree {!converged} judges *)
val global_tree : t -> Dgmc.Mc_id.t -> Mctree.Tree.t option
(** The stitched delivery tree: union of the agreed per-area trees plus
    the mapped inter-area links of the agreed logical tree.  [None]
    while inconsistent. *)

val converged : t -> Dgmc.Mc_id.t -> bool
(** No reason the hierarchy has not converged: no violation of the
    {!Dgmc.Terminal} agreement group within an area, the logical
    level's own {!Dgmc.Protocol.converged} (both groups, against the
    area joins and leaves the leaders made), each area's member ids
    matching its hosts plus gateways, the logical member ids matching
    the areas that hold real members, gateway sets matching the logical
    tree, and a valid stitched global tree. *)
