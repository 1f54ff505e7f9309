(** Flooding of LSAs over the network, with an optional reliable mode.

    [Hop_by_hop] and [Reliable] share one per-hop transport.  Each
    switch, on first receipt of an (origin, seq) pair, delivers the LSA
    locally and forwards it on every live incident link except the
    arrival link, each hop taking [t_hop] of simulated time.  This is
    classic LSR flooding; an LSA reaches a switch after (hop distance ×
    [t_hop]), and a partitioned switch does not receive it at all.

    The two modes differ only in whether acks are on.  [Hop_by_hop]
    (the default) fires and forgets each per-link copy.  [Reliable]
    hardens the same transport for lossy delivery: the receiver acks
    every data copy it gets, and the sender retransmits on a capped
    exponential backoff until acked or a retry budget is exhausted (so a
    dead neighbor times out cleanly instead of being retried forever);
    per-destination retransmit state ages out on ack or on retry
    exhaustion.  Duplicate-suppression on (origin, seq) makes [deliver]
    fire once per switch however many copies arrive.  Without a
    [transmit] hook the data-message schedule of the two modes is
    identical; the acks ride on top.

    {b Duplicate check.}  Each switch keeps, per origin it has heard
    from, a high-water mark (one past the highest sequence number
    received) and the gaps below it: the intervals of numbers not yet
    received.  A number at or above the mark is new and raises it,
    opening a gap over any numbers it skipped; a number below it is new
    only inside a gap, which it splits.  The check is exact under any
    reordering or duplication, and its state is one small record per
    (switch, origin) pair plus one interval per run of numbers still
    missing — in-order arrival opens none — instead of one entry per
    LSA received.  Sequence numbers must be non-negative, as
    {!Lsa.Seq} issues them.

    {b Cost per message.}  A transmission reads the link's state record
    ({!Net.Graph.link}) once when it is sent and checks it at arrival,
    with no lookup.  Without a [transmit] hook the one copy is scheduled
    directly, and an untraced arrival calls [deliver] and forwards
    without a context switch, so an untraced hop-by-hop message
    allocates only its calendar entry and arrival closure (about 24
    words at n = 100, against 58 with a tuple-keyed table, a copy list
    and a closure per neighbour).

    {b Fault injection.}  All per-link transmissions — [Hop_by_hop] and
    [Reliable] data, and [Reliable] acks — pass through the [transmit]
    hook, which maps one submitted transmission to the delivery delays of
    its copies ([[]] = lost).  Plug [Faults.Plan.transmit] in to subject
    the flood to loss, duplication, reordering, jitter, crashes and
    partitions.  With no hook, every transmission delivers one copy
    after [t_hop].

    {b Counters.}  The instance keeps the signaling-overhead counters the
    paper's evaluation reports — flooding operations and first-copy
    per-link data transmissions ({!messages_sent}) — plus, in reliable
    mode, separate {!acks_sent}, {!retransmissions} and
    {!deliveries_abandoned} counters, so the paper's figures stay
    comparable across modes: lossless [Reliable] ≡ [Hop_by_hop] on
    {!messages_sent}, with reliability's cost isolated in the ack and
    retransmission counters. *)

type mode = Hop_by_hop | Reliable

type reliability = {
  rto : float;
      (** Initial retransmit timeout, as a multiple of [t_hop].  Must
          exceed [2] (a round trip) to avoid spurious retransmissions on
          a clean link. *)
  rto_max : float;  (** Backoff cap, as a multiple of [t_hop]. *)
  max_retries : int;
      (** Retransmissions per (link, LSA) before the sender gives up. *)
}

val default_reliability : reliability
(** [rto = 4], [rto_max = 64], [max_retries = 10]. *)

val giveup_span_hops : reliability -> float
(** Worst-case simulated time, in [t_hop] multiples, between a transfer's
    first transmission and its giveup: the sum of the [max_retries + 1]
    timeout waits under doubling capped at [rto_max] (508 under the
    defaults).  {!Config.resync_deadline_hops} derives from this — a
    resync session must outlive its slowest possible transport attempt. *)

type transmit = src:int -> dst:int -> base_delay:float -> float list

type 'a t

val create :
  engine:Sim.Engine.t ->
  graph:Net.Graph.t ->
  t_hop:float ->
  ?mode:mode ->
  ?reliability:reliability ->
  ?transmit:transmit ->
  deliver:(switch:int -> 'a Lsa.t -> unit) ->
  unit ->
  'a t
(** [deliver] is invoked once per switch (except the origin) per flooded
    LSA, at the simulated arrival time.  [t_hop] must be positive.
    Without [transmit], every transmission arrives [t_hop] later as one
    copy.

    {b Observability.}  Flooding records into [engine]'s sinks
    ({!Sim.Engine.trace} and {!Sim.Engine.metrics}).  With an enabled
    trace, every per-link data transmission emits [Lsa_forwarded] (with
    [retransmit] set on reliable retries), every first receipt emits
    [Lsa_delivered], and losses emit [Lsa_dropped] with the reason
    ([fault] for injected loss, [link-down] for mid-flight link failure,
    [abandoned] for an exhausted reliable transfer).  Causal parents link
    each event to the transmission that caused it, and the ambient trace
    context at {!flood} time (normally the origination event) roots the
    tree; [deliver] runs under the delivery's context so protocol
    reactions chain on.  The counters below sum one [flood.*] registry
    handle per sending switch. *)

val flood : 'a t -> 'a Lsa.t -> unit
(** Start flooding from the LSA's origin at the current simulated time.
    The origin is {e not} delivered its own LSA.  Raises
    [Invalid_argument] when the origin is not a switch of the graph or
    the sequence number is negative. *)

val send : 'a t -> src:int -> dst:int -> ?on_giveup:(unit -> unit) ->
  'a Lsa.t -> unit
(** Unicast one LSA to a single adjacent switch — the transport for the
    database-resynchronisation exchange (summaries and deltas are
    addressed, not flooded).  [dst] must share a link with [src], and
    the LSA's origin and sequence number must be valid as for {!flood}
    ([Invalid_argument] otherwise); whether that link is {e up} is
    checked at each copy's arrival time, like any transmission.

    The hop goes through the same per-hop transport as a flood, but the
    receiver never forwards.  In [Reliable] mode the ack/retransmit/
    backoff machinery applies, the receiver deduplicates on [Lsa.id],
    and [on_giveup] fires once if the retry budget is exhausted without
    an ack.  In [Hop_by_hop] mode the copy is fire-and-forget: every
    copy that arrives is delivered (a duplicating [transmit] hook
    delivers twice), and [on_giveup] never fires — callers needing
    liveness there must keep their own deadline. *)

val floods_started : 'a t -> int
(** Number of {!flood} calls. *)

val messages_sent : 'a t -> int
(** First-copy data transmissions per link.  Retransmissions and acks
    are counted separately so this figure is comparable across modes. *)

val acks_sent : 'a t -> int
(** Reliable mode: acknowledgements submitted (0 in [Hop_by_hop]). *)

val retransmissions : 'a t -> int
(** Reliable mode: data copies retransmitted after a timeout. *)

val deliveries_abandoned : 'a t -> int
(** Reliable mode: (link, LSA) transfers abandoned after exhausting
    [max_retries] — the clean timeout for an unreachable neighbor. *)

val pending_retransmits : 'a t -> int
(** Reliable mode: (link, LSA) transfers currently awaiting an ack. *)

val abandon_link : 'a t -> src:int -> dst:int -> int
(** Cancel every pending transfer from [src] to [dst] — the link-health
    layer calls this when its detector declares the neighbor dead, so
    stale transfers stop retransmitting into a black hole immediately
    instead of spinning until [max_retries].  Each cancelled transfer
    counts as abandoned, leaves an [Lsa_dropped] breadcrumb with reason
    [neighbor-down], and fires its [on_giveup] exactly once (a transfer
    already acked or timed out is untouched).  Returns the number of
    transfers cancelled.  Giveups fire in (origin, seq) order. *)

val flood_diameter : graph:Net.Graph.t -> t_hop:float -> float
(** Worst-case time for a flood to reach every switch: hop diameter of
    the graph times [t_hop].  This is the paper's [Tf]. *)
