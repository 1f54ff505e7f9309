(** Core-based trees (Ballardie; paper §2 and §5).

    CBT builds one shared, receiver-only tree per group, anchored at a
    distinguished {e core} switch.  A joining switch sends a join
    request hop-by-hop along the unicast route toward the core; the
    request stops at the first on-tree switch and the traversed path is
    grafted.  There is no flooding and no topology computation — only
    unicast forwarding state — which is CBT's advantage; its documented
    drawbacks, reproduced by this model and measured in the benchmarks,
    are {e traffic concentration} around the core and the {e core
    placement} problem (a good core needs topology knowledge that
    networks do not reveal).

    Senders (members or not) deliver packets by unicasting toward the
    core until the packet hits the tree, then flooding over the tree —
    the paper's two-stage receiver-only delivery with the contact
    restricted to the core-ward path. *)

type t

val create : graph:Net.Graph.t -> core:int -> t
(** A fresh group anchored at [core].  The core is on the tree from the
    start (RFC-style primary core). *)

val tree : t -> Mctree.Tree.t
(** Current shared tree; terminals are the member switches (plus the
    core, which anchors the tree even when memberless). *)

val join : t -> int -> unit
(** Graft the switch; no-op when already a member.  Counts one control
    message per hop of the join request (and its ack back). *)

val control_messages : t -> int
(** Join messages sent so far (hop-granular, acks included). *)

val deliver : t -> src:int -> Mctree.Delivery.report
(** Send one data packet from [src]: unicast toward the core to the
    first on-tree switch, then along the tree. *)
