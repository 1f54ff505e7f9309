(** Link-state advertisement envelopes.

    An LSA is identified by its originating switch and a per-origin
    sequence number; flooding uses the pair for duplicate suppression,
    exactly as OSPF does.  The payload is left polymorphic: the unicast
    substrate floods link events, while the D-GMC layer floods MC LSAs
    (paper §3.1) — both reuse this envelope and the same flooding
    machinery. *)

type 'a t = { origin : int; seq : int; payload : 'a }

val make : origin:int -> seq:int -> 'a -> 'a t

val id : 'a t -> int * int
(** The (origin, seq) identity used for duplicate suppression. *)

(** Per-switch sequence-number allocator. *)
module Seq : sig
  type counter

  val create : unit -> counter

  val next : counter -> int
  (** Strictly increasing from 0. *)
end
