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
      inter-area links exist) runs a second D-GMC instance among
      designated {e area leaders} (lowest switch id — a leader-election
      protocol would pick one dynamically);
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
    not wired to an injection API here), leaders are designated, not
    elected, and the link-health layer is not run. *)

type t

val create :
  graph:Net.Graph.t ->
  partition:int list array ->
  config:Dgmc.Config.t ->
  unit ->
  t
(** [create ~graph ~partition ~config ()] — [partition.(a)] lists area
    [a]'s switches; areas must be non-empty, disjoint, cover the graph,
    and each induce a connected subgraph.  Every pair of areas used by
    the logical level must be joined by at least one real link; the
    cheapest such link realises the logical edge.  Logical-level
    flooding takes [3 *. config.t_hop] per hop (logical LSAs traverse
    several real hops).  [Invalid_argument] if [config.health] is set. *)

val leader : t -> int -> int
(** The designated leader switch of an area. *)

val logical_graph : t -> Net.Graph.t

(** {1 Events} *)

val join : t -> switch:int -> Dgmc.Mc_id.t -> Dgmc.Member.role -> unit

val leave : t -> switch:int -> Dgmc.Mc_id.t -> unit

val schedule_join :
  t -> at:float -> switch:int -> Dgmc.Mc_id.t -> Dgmc.Member.role -> unit

val schedule_leave : t -> at:float -> switch:int -> Dgmc.Mc_id.t -> unit

val run : t -> unit

(** {1 Measurements} *)

type totals = {
  events : int;  (** Host join/leave events injected. *)
  intra_floodings : int;  (** The intra {!Dgmc.Protocol}'s [mc_floodings]. *)
  logical_floodings : int;  (** Logical-level MC LSA floods. *)
  intra_messages : int;  (** The intra {!Dgmc.Protocol}'s [messages]. *)
  logical_messages : int;  (** Logical-level link transmissions. *)
  computations : int;  (** Topology computations, both levels. *)
  gateway_instructions : int;  (** Leader→gateway join/leave commands. *)
}

val totals : t -> totals

val reset_counters : t -> unit

(** {1 Agreement} *)

val global_tree : t -> Dgmc.Mc_id.t -> Mctree.Tree.t option
(** The stitched delivery tree: union of the agreed per-area trees plus
    the mapped inter-area links of the agreed logical tree.  [None]
    while inconsistent. *)

val divergence : t -> Dgmc.Mc_id.t -> string list
(** Reasons the hierarchy has not converged: a violation of the
    {!Dgmc.Terminal} agreement group within an area or among the
    logical nodes, an area's member ids not matching its hosts plus
    gateways, logical member ids not matching the areas that hold real
    members, gateway sets not matching the logical tree, or an invalid
    stitched global tree. *)

val converged : t -> Dgmc.Mc_id.t -> bool
