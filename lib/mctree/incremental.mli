(** Incremental topology maintenance (paper §3.5).

    Full Steiner recomputation per membership change is too expensive, so
    an implementation "should invoke an incremental update algorithm,
    which adds a tree branch to reach a new member or removes a branch
    from a leaving member", recomputing from scratch only "when the
    network configuration changes adversely and/or the present topology
    deviates significantly from an optimal one".  This module provides
    exactly those operations. *)

val join : Net.Graph.t -> Tree.t -> int -> Tree.t
(** [join g tree x] — add terminal [x], grafted onto the existing tree by
    the cheapest live path from [x] to any current tree node, the
    smallest such node on a tie (greedy dynamic-Steiner step of Imase &
    Waxman).  If the tree has no nodes
    yet, the result is the single-terminal tree.  Raises [Failure] when
    [x] cannot reach the tree.  Builds no node set: emptiness and
    membership are read off the tree, and {!Tree.nearest} scans the
    candidates. *)

val leave : Net.Graph.t -> Tree.t -> int -> Tree.t
(** [leave g tree x] — remove terminal [x] and prune the now-useless
    branch (non-terminal leaves). *)

val repair : Net.Graph.t -> Tree.t -> Tree.t option
(** [repair g tree] — drop tree edges whose links are down, then
    reconnect the fragments along cheapest live paths.  [None] when the
    terminals are no longer mutually reachable (network partition).

    An intact tree — two or more terminals, every edge live, already
    {!Tree.is_valid_mc_topology} — needs no repair and comes back as
    [Tree.prune tree], without the rebuild through its live fragment:
    the same tree the rebuild would return. *)

val recompute : threshold:float -> Net.Graph.t -> Tree.t -> Tree.t option
(** [recompute ~threshold g tree] — [Some fresh], the {!Steiner.sph}
    tree on [tree]'s terminals, when [tree]'s drift — its cost over
    [fresh]'s, [1.0] below two terminals — exceeds [threshold]: the
    paper's "deviates significantly from an optimal" trigger.  [None]
    otherwise.  The fresh tree priced by the check is the one handed
    back, so a caller that installs it runs SPH once.  Raises [Failure]
    when the terminals are not mutually reachable, as {!Steiner.sph}
    does. *)
