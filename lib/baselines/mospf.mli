(** MOSPF-style multicast (RFC 1584 semantics; paper §2 and §5).

    MOSPF extends OSPF: group membership is flooded in group-membership
    LSAs and every router keeps complete member lists, but topology
    computation is {e on-demand and data-driven} — when a datagram for
    group [G] from source [S] reaches a router with no cached (S, G)
    entry, the router computes the shortest-path tree rooted at [S]
    pruned to [G]'s members, caches it, and forwards along it; the
    forwarding triggers the same computation at the next routers.

    Consequences the paper highlights, all reproduced here:
    - a membership change invalidates cached entries, so the {e next}
      packet from each active source triggers one computation {e at
      every on-tree router} — computations per event grow with both the
      tree size and the number of sources;
    - receiver-only delivery cannot be triggered by senders (a packet
      must already flow), and QoS negotiation before data flow is
      impossible — modelled here by computation happening only inside
      {!send_packet}. *)

type t

val create :
  graph:Net.Graph.t -> config:Dgmc.Config.t -> unit -> t

val engine : t -> Sim.Engine.t

(** {1 Membership (group-membership LSAs)} *)

val schedule_join : t -> at:float -> switch:int -> group:int -> unit

val schedule_leave : t -> at:float -> switch:int -> group:int -> unit

(** {1 Data plane} *)

val send_packet : t -> src:int -> group:int -> unit
(** Inject one datagram now: it is forwarded hop-by-hop along the
    source-rooted tree; every router whose (src, group) cache entry is
    missing or stale pays a [tc]-long computation before forwarding. *)

val run : t -> unit

(** {1 Measurements} *)

type totals = {
  events : int;  (** Membership events injected. *)
  computations : int;  (** SPT computations across all routers. *)
  floodings : int;  (** Group-membership LSA floodings. *)
  messages : int;  (** Flooding link transmissions. *)
  packets_forwarded : int;  (** Data-packet link transmissions. *)
}

val totals : t -> totals

(* dgmc-analyze: allow unused-export — test_baselines "membership
   propagates" checks the member list every router holds *)
val members : t -> switch:int -> group:int -> int list
(** The member list router [switch] currently holds, ascending. *)
