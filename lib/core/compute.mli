(** Topology computation as invoked by the protocol (paper §3.5).

    The protocol is independent of the algorithm; this module is the
    single entry point a switch calls when it needs a topology proposal.
    The config's {!Config.computation} chooses the algorithm:

    - asymmetric MCs always get a fresh source-rooted shortest-path tree
      (one Dijkstra — already cheap);
    - shared trees (symmetric, receiver-only) under
      [Incremental { drift }] are updated incrementally — repair dead
      branches, graft joined members, prune left members — unless the
      current tree is unusable or has drifted past [drift], in which
      case the SPH Steiner heuristic ({!Mctree.Steiner.sph}) runs from
      scratch; under [Scratch] SPH always runs from scratch.

    When some members are unreachable on the switch's network image (a
    partition, which the paper leaves to future work), the computation
    covers the members reachable from the computing switch itself, so
    each side of a partition keeps serving its own survivors. *)

val topology :
  Config.t ->
  Mc_id.kind ->
  Net.Graph.t ->
  Member.t ->
  self:int ->
  current:Mctree.Tree.t option ->
  Mctree.Tree.t
(** [topology config kind image members ~self ~current] is the proposal
    switch [self] computes from its local image.  Empty membership
    yields {!Mctree.Tree.empty}. *)
