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
    dead neighbor times out cleanly instead of being retried forever).
    The transfers awaiting an ack hold one slot each in the instance's
    transfer table, which they leave on ack, on retry exhaustion or on
    {!abandon_link}; a link never has two for one LSA, as {!flood} and
    {!send} take each LSA once.  In both modes
    duplicate suppression on (origin, seq) makes [deliver] fire once per
    switch however many copies arrive, flooded or unicast.  Without a
    [transmit] hook the data-message schedule of the two modes is
    identical; the acks ride on top.

    {b Duplicate check.}  Each switch keeps, per origin, a high-water
    mark (one past the highest sequence number received, [0] for none)
    and the gaps below it: the intervals of numbers not yet received.
    A number at or above the mark is new and raises it, opening a gap
    over any numbers it skipped; a number below it is new only inside a
    gap, which it splits.  The check is exact under any reordering or
    duplication.  Its state is one int and one gap list per (switch,
    origin) pair, held in two rows per origin (indexed by switch, made
    on the origin's first LSA), plus one interval per run of numbers
    still missing — in-order arrival opens none.  A copy's check reads
    its origin's rows at its switch, with no lookup.  Sequence numbers
    must be non-negative, as {!Lsa.Seq} issues them.

    {b Cost per message.}  A transmission reads the link's state record
    ({!Net.Graph.link}) once when it is sent and checks it at arrival,
    with no lookup.  Every copy in flight, data or ack, takes a slot in
    the instance's in-flight table: parallel arrays holding a data
    copy's LSA, link, direction, kind (flooded on or not) and forward
    event's trace id, or an ack's LSA, link and direction, with a free
    list of released slots.  The instance builds one arrival callback
    and {!Sim.Engine.post}s it with the slot's id for each copy, and
    forwarding walks the sender's sorted row with a plain recursion, so
    an untraced hop-by-hop message allocates nothing once the table and
    the calendar have grown, where {!Sim.Engine.post} is inlined (in
    dune's dev profile, each copy's delay is boxed to cross the call).
    An untraced arrival calls [deliver] and forwards without a context
    switch.  A [Reliable] transfer adds no allocation either: it takes
    a slot in the transfer table (parallel arrays with a free list), and
    its token — the slot's id packed with a generation number — names
    it everywhere else.  Each retransmit timer is a {!Sim.Engine.post} of
    the token with one callback built per instance, whose liveness
    check rejects a token whose transfer has ended; each data copy's
    in-flight slot carries the token, and its ack echoes it back, so an
    ack finds its transfer without a lookup.  Ending a transfer bumps
    its slot's generation and {!Sim.Engine.retire}s its pending timer.
    A [transmit] hook writes its copies' delays into the
    instance's own two-slot array (without a hook, [t_hop] is written
    there), and each copy is posted straight from it, so the hook adds
    only its own allocation: none for an untraced
    [Faults.Plan.transmit] where its draws are inlined.

    {b Fault injection.}  All per-link transmissions — data, acks and
    the link-health layer's hellos (through {!wire}) — pass through the
    [transmit] hook: it maps one submitted transmission to the delivery
    delays of its copies, written into a two-slot array the instance
    owns, and returns their number ([0] = lost).  Plug
    [Faults.Plan.transmit] in to subject the flood to loss, duplication,
    reordering, jitter, crashes and partitions.  With no hook, every
    transmission delivers one copy after [t_hop].

    {b Counters.}  The instance keeps the signaling-overhead counters the
    paper's evaluation reports — flooding operations and first-copy
    per-link data transmissions ({!messages_sent}) — plus, in reliable
    mode, separate {!acks_sent} and {!retransmissions} counters and a
    per-switch [flood.abandoned] registry counter, so the paper's figures stay
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

type transmit = src:int -> dst:int -> base_delay:float -> float array -> int
(** [transmit ~src ~dst ~base_delay delays] decides one transmission:
    it writes the delay of each copy to deliver into [delays.(0)] and,
    for a duplicate, [delays.(1)], and returns the number of copies
    ([0] to [2]).  [delays] is the instance's own two-slot array, read
    back before the next call, so the hook need not allocate; it must
    not keep it. *)

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
    the sequence number is negative, and in [Reliable] mode when the
    origin has already flooded, sent or received the LSA (in
    [Hop_by_hop] mode a second flood is suppressed by every receiver). *)

val send : 'a t -> src:int -> dst:int -> 'a Lsa.t -> unit
(** Unicast one LSA to a single adjacent switch — the transport for the
    database-resynchronisation exchange (summaries and deltas are
    addressed, not flooded).  [dst] must share a link with [src], and
    the LSA's origin and sequence number must be valid as for {!flood},
    and in [Reliable] mode [src] must not have flooded, sent or received
    the LSA before ([Invalid_argument] otherwise); whether that link is {e up} is
    checked at each copy's arrival time, like any transmission.

    The hop goes through the same per-hop transport as a flood, but the
    receiver never forwards, and delivers the LSA on its first receipt
    only.  In [Reliable] mode the ack/retransmit/backoff machinery
    applies, and a transfer whose retry budget runs out without an ack
    is abandoned (counted in [flood.abandoned]); in [Hop_by_hop] mode the
    copy is fire-and-forget.  Either way the sender hears nothing of a
    lost message. *)

val wire :
  'a t -> src:int -> dst:int -> Sim.Engine.callback -> int -> bool
(** [wire t ~src ~dst arrive arg] puts one transmission from [src] to
    [dst] on the wire: [arrive] is posted with [arg] once per copy the
    [transmit] hook returns, at that copy's delay, or once after [t_hop]
    without a hook.  [false] when the hook loses every copy.  [arrive]
    must check the link itself: its state at arrival decides whether
    the copy got through.  The link-health layer's hellos ride it, one
    callback for all of them; data and acks take the same path through
    the in-flight table instead. *)

val floods_started : 'a t -> int
(** Number of {!flood} calls. *)

val messages_sent : 'a t -> int
(** First-copy data transmissions per link.  Retransmissions and acks
    are counted separately so this figure is comparable across modes. *)

val acks_sent : 'a t -> int
(** Reliable mode: acknowledgements submitted (0 in [Hop_by_hop]). *)

val retransmissions : 'a t -> int
(** Reliable mode: data copies retransmitted after a timeout. *)

(* dgmc-analyze: allow unused-export — test_flooding_reliable checks
   that every finished or abandoned transfer leaves the in-flight table *)
val pending_retransmits : 'a t -> int
(** Reliable mode: (link, LSA) transfers currently awaiting an ack.
    O(1). *)

val abandon_link : 'a t -> src:int -> dst:int -> int
(** Cancel every pending transfer from [src] to [dst] — the link-health
    layer calls this when its detector declares the neighbor dead, so
    stale transfers stop retransmitting into a black hole immediately
    instead of spinning until [max_retries].  Each cancelled transfer
    is aged out, its timer retired, counts as abandoned once, and
    leaves an [Lsa_dropped] breadcrumb with reason [neighbor-down], in
    (origin, seq) order (a transfer already acked or timed out is
    untouched).  Returns the number of transfers cancelled. *)

val flood_diameter : graph:Net.Graph.t -> t_hop:float -> float
(** Worst-case time for a flood to reach every switch: hop diameter of
    the graph times [t_hop].  This is the paper's [Tf]. *)
