(** Install-time re-detection (extension).  A proposal computed before a
    link failure can be installed after the detection at the failure
    (Figure 2) has passed it by.  A switch knows its own links, and each
    tree edge has two endpoints, so checking incident links suffices. *)

val dead_incident_link : self:int -> Net.Graph.t -> Mctree.Tree.t -> bool
(** After install: the tree uses a link of [self] that [self]'s image
    shows down, so [EventHandler] runs for a link event.  Allocates
    nothing. *)
