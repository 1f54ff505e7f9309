(** Network topology generators.

    The paper evaluates D-GMC on "randomly generated graphs" of up to 100
    switches.  We use Waxman graphs — the standard random-topology model
    of the 1990s multicast-routing literature (cf. the paper's Imase &
    Waxman reference) — as the default, plus a family of regular
    topologies for tests and examples.  All generators return
    connected graphs and draw exclusively from the supplied {!Sim.Rng.t},
    so a (generator, seed) pair fully determines the topology. *)

val waxman :
  Sim.Rng.t ->
  n:int ->
  ?target_degree:float ->
  unit ->
  Graph.t
(** Waxman (1988) random graph: [n] points placed uniformly in the unit
    square; an edge joins [u] and [v] with probability
    [alpha * exp (-d(u,v) / (beta * l))] where [d] is Euclidean distance
    and [l] the maximum pairwise distance.  Edge weight is
    [scale * d(u,v)].  Components are then connected by their closest
    node pairs so the result is always connected.
    Here [alpha = 0.25], [beta = 0.2] and [scale = 10.0].

    In the plain model the mean degree grows with [n]; passing
    [target_degree] overrides [alpha] with the value that makes the
    {e expected} number of edges equal [n * target_degree / 2] for the
    drawn node placement, keeping graphs of different sizes comparable —
    which is what the paper's size sweeps need. *)

val clustered :
  Sim.Rng.t ->
  areas:int ->
  per_area:int ->
  ?inter_links:int ->
  ?target_degree:float ->
  unit ->
  Graph.t * int list array
(** A two-level topology for hierarchical-routing experiments: [areas]
    Waxman clusters of [per_area] switches each, joined by
    [inter_links] (default 2) long links between every pair of adjacent
    areas on a ring of areas — dense inside, sparse between, like an
    internetwork of domains.  Node ids are contiguous per area
    ([area k] owns [k*per_area .. (k+1)*per_area - 1]); the returned
    array lists each area's switches.  An inter-area link costs [20.0]. *)

(* dgmc-analyze: allow unused-export — test_props checks the one-pass
   joining step against the rescan loop under the ties that waxman's
   distinct weights never draw *)
val connect_components :
  Graph.t -> cost:(int -> int -> float) -> weight:(int -> int -> float) -> unit
(** The joining step of the random generators.  While [g] is
    disconnected over live links, add an edge [u -- v] between the two
    nodes in different components with the least [cost u v], ties going
    to the first pair in scan order: components by smallest member, [u]
    ascending in the earlier component, then [v] ascending through the
    later components in turn.  [cost] must be symmetric.  The edge's
    weight is [weight u v], called once per added edge in joining order.
    One O(n{^2}) pass, then a sort of the [k(k-1)/2] pairs of the [k]
    components; a run of equal costs is rescanned once per edge it adds. *)

val ring : ?weight:float -> int -> Graph.t
(** Cycle on [n >= 3] nodes; every edge has the given weight
    (default [1.0]). *)

val line : ?weight:float -> int -> Graph.t
(** Path graph on [n >= 2] nodes. *)

val star : ?weight:float -> int -> Graph.t
(** Node 0 joined to all others; [n >= 2]. *)

val grid : ?weight:float -> rows:int -> cols:int -> unit -> Graph.t
(** [rows × cols] mesh; node ids are [row * cols + col]. *)

val complete : ?weight:float -> int -> Graph.t
(** Complete graph on [n >= 2] nodes. *)
