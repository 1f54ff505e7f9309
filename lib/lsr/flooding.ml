type mode = Hop_by_hop | Reliable

type reliability = {
  rto : float;
  rto_max : float;
  max_retries : int;
}

let default_reliability = { rto = 4.0; rto_max = 64.0; max_retries = 10 }

type transmit = src:int -> dst:int -> base_delay:float -> float array -> int

(* The sequence numbers one switch has not received from one origin
   below its high-water mark: disjoint half-open intervals [lo, hi),
   highest first.  Only a skipped number opens one (reordering, loss, or
   a unicast addressed to another switch), so in-order arrival keeps the
   list empty. *)
type gaps = No_gap | Gap of { lo : int; hi : int; below : gaps }

(* The reliable transfers awaiting an ack, one slot each in parallel
   arrays with a free list, as in the in-flight table below.  A slot
   holds the transfer's LSA, link, [src → dst] direction, kind
   ([forward]: whether [dst] floods it on), the trace id of its first
   data copy's forward event ([first]: retransmissions and the
   abandonment hang off it), its retransmissions so far and its current
   timeout.  A transfer is named by its token: the slot id packed with
   the slot's generation ({!token}).  Its retransmit timer is a post of
   the token, and each of its data copies carries the token for the
   ack to echo.  An ack, retry exhaustion or {!abandon_link} ends the
   transfer: the slot's generation is bumped and the slot freed, so
   every token of it still in the calendar or on the wire is stale.
   No lookup by LSA is needed: {!flood} and {!send} reject an LSA their
   source has already flooded, sent or received, so no link ever
   carries two transfers of one LSA. *)
type 'a transfers = {
  mutable r_lsa : 'a Lsa.t array;
  mutable r_link : Net.Graph.link array;
  mutable r_src : int array;  (** [-1] on a free slot. *)
  mutable r_dst : int array;
  mutable forward : bool array;
  mutable first : int array;
  mutable tries : int array;
  mutable timeout : Float.Array.t;
  mutable gen : int array;
  r_ids : Sim.Slots.t;
}

(* The copies in flight, data and acks, one slot each in parallel
   arrays.  A slot is claimed when its copy is posted and released when
   the copy arrives, so an arrival is a posted slot id rather than a
   closure.  Released slots are reused last first.  A data copy's slot
   holds its LSA, link, [src → dst] direction, kind, forward event's
   trace id and, in [Reliable] mode, its transfer's token (the [tid]
   column is grown in that mode only); an ack's holds the acked LSA,
   the link, the ack's own direction and the token it echoes.  The LSA
   and link arrays (and the transfers') are grown with the claiming
   copy's values as filler, as there is no ['a Lsa.t] to start them
   with. *)
type 'a flight = {
  mutable lsa : 'a Lsa.t array;
  mutable link : Net.Graph.link array;
  mutable src : int array;
  mutable dst : int array;
  mutable kind : kind array;
  mutable fid : int array;
  mutable tid : int array;
  ids : Sim.Slots.t;
}

(* A slot's kind: a data copy the receiver floods on, a data copy it
   does not (a unicast), or an ack. *)
and kind = Flooded | Unicast | Ack

type 'a t = {
  engine : Sim.Engine.t;
  graph : Net.Graph.t;
  n : int;
  t_hop : float;
  mode : mode;
  rel : reliability;
  transmit : transmit option;  (** [None]: one copy after [t_hop]. *)
  delays : float array;
      (** The two slots the [transmit] hook writes its copies' delays
          into; {!wire} and {!put} post from them before the next
          call. *)
  deliver : switch:int -> 'a Lsa.t -> unit;
  trace : Sim.Trace.t;
  high : int array array;
      (** Per origin, per switch: one past the highest sequence number
          the switch has received from the origin, [0] for none.  An
          origin's row is made on its first LSA; until then it is the
          shared [[||]]. *)
  gaps : gaps array array;
      (** Per origin, per switch, beside [high]: the numbers below the
          mark not yet received.  A switch has received from an origin
          every number below its mark outside its gaps. *)
  rtx : 'a transfers;  (** Reliable mode: the transfers awaiting an ack. *)
  flight : 'a flight;
  mutable arrival : Sim.Engine.callback;
      (** Posted with a {!flight} slot for each copy: {!arrive}. *)
  mutable retransmit : Sim.Engine.callback;
      (** Posted with a transfer's token for each timeout:
          {!retransmit}, live while the token is. *)
  floods : Metrics.Registry.counter array;
  messages : Metrics.Registry.counter array;
  acks : Metrics.Registry.counter array;
  retransmitted : Metrics.Registry.counter array;
  abandoned : Metrics.Registry.counter array;
      (** The [flood.*] counters, one handle per origin or sending
          switch. *)
}

let traced t = Sim.Trace.enabled t.trace

let now t = Sim.Engine.now t.engine

(* ------------------------------------------------------------------ *)
(* Duplicate check *)

(* Gaps are highest first, so the walk stops at the first gap [seq] is
   not below. *)
let rec in_gaps seq = function
  | No_gap -> false
  | Gap g -> seq < g.hi && (seq >= g.lo || in_gaps seq g.below)

(* [gaps] without [seq], which one of them holds. *)
let rec fill seq = function
  | No_gap -> No_gap
  | Gap g when seq >= g.lo ->
    let below =
      if seq > g.lo then Gap { lo = g.lo; hi = seq; below = g.below }
      else g.below
    in
    if seq + 1 < g.hi then Gap { lo = seq + 1; hi = g.hi; below } else below
  | Gap g -> Gap { g with below = fill seq g.below }

(* Record [lsa] as received at [switch]; [true] on its first receipt
   there.  A mark of [0] receives any [seq] as new, opening the gap
   [[0, seq)]. *)
let first_receipt t switch lsa =
  let seq = lsa.Lsa.seq and origin = lsa.Lsa.origin in
  if Array.length t.high.(origin) = 0 then begin
    t.high.(origin) <- Array.make t.n 0;
    t.gaps.(origin) <- Array.make t.n No_gap
  end;
  let high = t.high.(origin) and gaps = t.gaps.(origin) in
  let mark = high.(switch) in
  if seq >= mark then begin
    if seq > mark then
      gaps.(switch) <- Gap { lo = mark; hi = seq; below = gaps.(switch) };
    high.(switch) <- seq + 1;
    true
  end
  else if in_gaps seq gaps.(switch) then begin
    gaps.(switch) <- fill seq gaps.(switch);
    true
  end
  else false

(* Sequence numbers start at 0 ({!Lsa.Seq}) and origins are switches:
   the duplicate check's rows and intervals rely on both. *)
let check_lsa t fn lsa =
  if lsa.Lsa.origin < 0 || lsa.Lsa.origin >= t.n then
    invalid_arg
      (Printf.sprintf "Flooding.%s: origin %d is not a switch" fn
         lsa.Lsa.origin);
  if lsa.Lsa.seq < 0 then
    invalid_arg (Printf.sprintf "Flooding.%s: negative sequence number" fn)

(* ------------------------------------------------------------------ *)
(* The per-hop transport *)

(* Decide one [src → dst] transmission: write the delay of each copy
   into [t.delays] and return their number, the [transmit] hook's
   copies or one after [t_hop] without a hook ([0]: all lost). *)
let copies t ~src ~dst =
  match t.transmit with
  | None ->
    t.delays.(0) <- t.t_hop;
    1
  | Some transmit -> transmit ~src ~dst ~base_delay:t.t_hop t.delays

(* Post [arrive] with [arg] for every copy of one [src → dst]
   transmission; [false] when the hook loses them all.  [arrive] reads
   the link's state itself, so a message in flight over a link that
   fails is lost, as on a real wire. *)
let wire t ~src ~dst arrive arg =
  let n = copies t ~src ~dst in
  for i = 0 to n - 1 do
    Sim.Engine.post t.engine ~delay:t.delays.(i) arrive arg
  done;
  n > 0

let grow_flight t ~link lsa =
  let f = t.flight in
  let capacity = Array.length f.src in
  let larger = max 16 (2 * capacity) in
  let extend a fill =
    let b = Array.make larger fill in
    Array.blit a 0 b 0 capacity;
    b
  in
  f.lsa <- extend f.lsa lsa;
  f.link <- extend f.link link;
  f.src <- extend f.src 0;
  f.dst <- extend f.dst 0;
  f.kind <- extend f.kind Ack;
  f.fid <- extend f.fid 0;
  if t.mode = Reliable then f.tid <- extend f.tid 0

(* A slot holding one copy: a released one if any, else a fresh one. *)
let claim t ~kind ~src ~dst ~link ~fid ~tid lsa =
  let f = t.flight in
  let slot = Sim.Slots.take f.ids in
  if slot = Array.length f.src then grow_flight t ~link lsa;
  f.lsa.(slot) <- lsa;
  f.link.(slot) <- link;
  f.src.(slot) <- src;
  f.dst.(slot) <- dst;
  f.kind.(slot) <- kind;
  f.fid.(slot) <- fid;
  if tid >= 0 then f.tid.(slot) <- tid;
  slot

(* {!wire} for a data copy or an ack: post {!arrive} once per copy, each
   copy in its own slot.  The delays are posted straight from
   [t.delays], so where [Sim.Engine.post] is inlined none is boxed. *)
let put t ~kind ~src ~dst ~link ~fid ~tid lsa =
  let n = copies t ~src ~dst in
  for i = 0 to n - 1 do
    Sim.Engine.post t.engine ~delay:t.delays.(i) t.arrival
      (claim t ~kind ~src ~dst ~link ~fid ~tid lsa)
  done;
  n > 0

(* ------------------------------------------------------------------ *)
(* Reliable transfers *)

(* A token packs a transfer's slot below [slot_bits] and the slot's
   generation above them. *)
let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let token r slot = (r.gen.(slot) lsl slot_bits) lor slot

(* Whether [tok] names a transfer still awaiting its ack: ending one
   bumps its slot's generation. *)
let live r tok = r.gen.(tok land slot_mask) = tok lsr slot_bits

let grow_transfers r ~link lsa =
  let capacity = Array.length r.r_src in
  let larger = max 16 (2 * capacity) in
  if larger > slot_mask + 1 then
    failwith "Flooding: too many reliable transfers awaiting an ack";
  let extend a fill =
    let b = Array.make larger fill in
    Array.blit a 0 b 0 capacity;
    b
  in
  r.r_lsa <- extend r.r_lsa lsa;
  r.r_link <- extend r.r_link link;
  r.r_src <- extend r.r_src (-1);
  r.r_dst <- extend r.r_dst 0;
  r.forward <- extend r.forward false;
  r.first <- extend r.first 0;
  r.tries <- extend r.tries 0;
  let timeout = Float.Array.make larger 0.0 in
  Float.Array.blit r.timeout 0 timeout 0 capacity;
  r.timeout <- timeout;
  r.gen <- extend r.gen 0

(* A slot for a new transfer; its generation is the one its last
   transfer left. *)
let open_transfer t ~src ~dst ~link ~forward lsa =
  let r = t.rtx in
  let slot = Sim.Slots.take r.r_ids in
  if slot = Array.length r.r_src then grow_transfers r ~link lsa;
  r.r_lsa.(slot) <- lsa;
  r.r_link.(slot) <- link;
  r.r_src.(slot) <- src;
  r.r_dst.(slot) <- dst;
  r.forward.(slot) <- forward;
  r.tries.(slot) <- 0;
  Float.Array.set r.timeout slot (t.rel.rto *. t.t_hop);
  slot

(* End the transfer in [slot]: its generation bumped so that its
   tokens go stale, the slot freed. *)
let close_transfer t slot =
  let r = t.rtx in
  r.gen.(slot) <- r.gen.(slot) + 1;
  r.r_src.(slot) <- -1;
  Sim.Slots.give_back r.r_ids slot

let dropped t ~src ~dst ~fid lsa reason =
  Sim.Trace.drop t.trace ~time:(now t) ~parent:fid ~src ~dst
    ~origin:lsa.Lsa.origin ~seq:lsa.Lsa.seq reason

(* End the live transfer in [slot] unacknowledged: free it, account
   and leave the trace breadcrumb.  Its tokens go stale with it, so a
   transfer is abandoned at most once. *)
let drop_transfer t slot ~reason =
  let r = t.rtx in
  let src = r.r_src.(slot)
  and dst = r.r_dst.(slot)
  and first = r.first.(slot)
  and lsa = r.r_lsa.(slot) in
  close_transfer t slot;
  Metrics.Registry.bump t.abandoned.(src);
  if traced t then dropped t ~src ~dst ~fid:first lsa reason

(* Count (first copies only), trace and put on the wire one data
   transmission of [lsa] over [link] ([src → dst]), carrying its
   transfer's token [tid]; returns the forward's trace id (-1
   untraced).  Each copy that arrives while [link] is up is received
   at [dst]; fault losses and mid-flight link failures leave
   [Lsa_dropped] children on the forward event instead. *)
let rec send_data t ~src ~dst ~link ~forward ~retransmit ~parent ~tid lsa =
  if not retransmit then Metrics.Registry.bump t.messages.(src);
  let fid =
    if traced t then
      Sim.Trace.forward t.trace ~time:(now t) ~parent ~src ~dst
        ~origin:lsa.Lsa.origin ~seq:lsa.Lsa.seq ~retransmit
    else -1
  in
  let kind = if forward then Flooded else Unicast in
  if (not (put t ~kind ~src ~dst ~link ~fid ~tid lsa)) && traced t then
    dropped t ~src ~dst ~fid lsa Fault;
  fid

(* The timeout of the transfer [tok] names.  The engine runs it only
   while [tok] is live, so the transfer still awaits its ack: give up
   once the retry budget is spent, else send the next copy and post the
   next timeout, backed off. *)
and retransmit t tok =
  let r = t.rtx and slot = tok land slot_mask in
  if r.tries.(slot) >= t.rel.max_retries then
    drop_transfer t slot ~reason:Abandoned
  else begin
    let src = r.r_src.(slot) in
    r.tries.(slot) <- r.tries.(slot) + 1;
    Metrics.Registry.bump t.retransmitted.(src);
    ignore
      (send_data t ~src ~dst:r.r_dst.(slot) ~link:r.r_link.(slot)
         ~forward:r.forward.(slot) ~retransmit:true ~parent:r.first.(slot)
         ~tid:tok r.r_lsa.(slot));
    let doubled = 2.0 *. Float.Array.get r.timeout slot
    and cap = t.rel.rto_max *. t.t_hop in
    let timeout = if doubled <= cap then doubled else cap in
    Float.Array.set r.timeout slot timeout;
    Sim.Engine.post t.engine ~delay:timeout t.retransmit tok
  end

(* One transfer of [lsa] over [link] ([src → dst]): the first data copy
   ([forward] says whether [dst] floods it on).  In [Reliable] mode the
   transfer also takes a slot and posts its first timeout. *)
and transfer t ~src ~dst ~link ~parent ~forward lsa =
  match t.mode with
  | Hop_by_hop ->
    ignore
      (send_data t ~src ~dst ~link ~forward ~retransmit:false ~parent
         ~tid:(-1) lsa)
  | Reliable ->
    let slot = open_transfer t ~src ~dst ~link ~forward lsa in
    let tok = token t.rtx slot in
    t.rtx.first.(slot) <-
      send_data t ~src ~dst ~link ~forward ~retransmit:false ~parent ~tid:tok
        lsa;
    Sim.Engine.post t.engine
      ~delay:(Float.Array.get t.rtx.timeout slot)
      t.retransmit tok

(* One data copy arriving at [switch] from [from] over [link].  In
   [Reliable] mode every copy is acked, duplicates included: it may be a
   retransmission whose predecessor's ack was lost.  The ack echoes the
   copy's transfer token [tid].  Either way the LSA
   is delivered on first receipt only; a flooded copy ([forward]) is
   then forwarded on every live link except the arrival link.  A traced
   delivery runs, forwarding included, under its [Lsa_delivered]
   event's context. *)
and receive t lsa ~link ~at:switch ~from ~forward ~fid ~tid =
  (match t.mode with
  | Reliable ->
    Metrics.Registry.bump t.acks.(switch);
    ignore (put t ~kind:Ack ~src:switch ~dst:from ~link ~fid:(-1) ~tid lsa)
  | Hop_by_hop -> ());
  if first_receipt t switch lsa then
    if traced t then begin
      let did =
        Sim.Trace.deliver t.trace ~time:(now t) ~parent:fid ~switch
          ~source:from ~origin:lsa.Lsa.origin ~seq:lsa.Lsa.seq
      in
      let saved = Sim.Trace.set_context t.trace did in
      match
        t.deliver ~switch lsa;
        if forward then forward_from t lsa ~at:switch ~from ~parent:did
      with
      | () -> Sim.Trace.restore_context t.trace saved
      | exception e ->
        Sim.Trace.restore_context t.trace saved;
        raise e
    end
    else begin
      t.deliver ~switch lsa;
      if forward then forward_from t lsa ~at:switch ~from ~parent:(-1)
    end

(* Transfer [lsa] from [at] on every live link except the one to [from]
   ([-1] at the origin: every link). *)
and forward_from t lsa ~at ~from ~parent =
  forward_on t lsa ~at ~from ~parent (Net.Graph.links t.graph at)

(* The walk of {!forward_from} over [at]'s sorted row, its context
   passed as arguments so that it needs no closure.  A link's state is
   read when the walk reaches it. *)
and forward_on t lsa ~at ~from ~parent = function
  | [] -> ()
  | (next, link) :: rest ->
    if Net.Graph.is_up link && next <> from then
      transfer t ~src:at ~dst:next ~link ~parent ~forward:true lsa;
    forward_on t lsa ~at ~from ~parent rest

(* One copy arriving: slot [slot] of the in-flight table, released
   before the copy is handled so that its forwards can reuse it.  A
   copy whose link went down in flight is lost, as on a real wire. *)
let arrive t slot =
  let f = t.flight in
  let lsa = f.lsa.(slot)
  and link = f.link.(slot)
  and src = f.src.(slot)
  and dst = f.dst.(slot)
  and kind = f.kind.(slot)
  and fid = f.fid.(slot)
  and tid = match t.mode with Reliable -> f.tid.(slot) | Hop_by_hop -> -1 in
  Sim.Slots.give_back f.ids slot;
  match kind with
  | Ack ->
    (* The transfer's end retires its pending timeout.  A late duplicate
       ack, or one after the abandonment, finds its token stale. *)
    if Net.Graph.is_up link && live t.rtx tid then begin
      close_transfer t (tid land slot_mask);
      Sim.Engine.retire t.engine
    end
  | Flooded | Unicast ->
    if Net.Graph.is_up link then
      receive t lsa ~link ~at:dst ~from:src ~forward:(kind = Flooded) ~fid
        ~tid
    else if traced t then dropped t ~src ~dst ~fid lsa Link_down

let create ~engine ~graph ~t_hop ?(mode = Hop_by_hop)
    ?(reliability = default_reliability) ?transmit ~deliver () =
  if t_hop <= 0.0 then invalid_arg "Flooding.create: t_hop must be positive";
  if reliability.rto <= 2.0 then
    invalid_arg
      "Flooding.create: rto must exceed 2 hop times (one ack round trip)";
  if reliability.rto_max < reliability.rto then
    invalid_arg "Flooding.create: rto_max must be >= rto";
  if reliability.max_retries < 0 then
    invalid_arg "Flooding.create: max_retries must be non-negative";
  let n = Net.Graph.n_nodes graph in
  let per_switch = Metrics.Registry.per_switch (Sim.Engine.metrics engine) n in
  let t =
    {
      engine;
      graph;
      n;
      t_hop;
      mode;
      rel = reliability;
      transmit;
      delays = Array.make 2 0.0;
      deliver;
      trace = Sim.Engine.trace engine;
      high = Array.make n [||];
      gaps = Array.make n [||];
      rtx =
        {
          r_lsa = [||];
          r_link = [||];
          r_src = [||];
          r_dst = [||];
          forward = [||];
          first = [||];
          tries = [||];
          timeout = Float.Array.create 0;
          gen = [||];
          r_ids = Sim.Slots.create ();
        };
      flight =
        {
          lsa = [||];
          link = [||];
          src = [||];
          dst = [||];
          kind = [||];
          fid = [||];
          tid = [||];
          ids = Sim.Slots.create ();
        };
      arrival = Sim.Engine.callback ignore;
      retransmit = Sim.Engine.callback ignore;
      floods = per_switch "flood.floods";
      messages = per_switch "flood.messages";
      acks = per_switch "flood.acks";
      retransmitted = per_switch "flood.retransmissions";
      abandoned = per_switch "flood.abandoned";
    }
  in
  t.arrival <- Sim.Engine.callback (arrive t);
  t.retransmit <- Sim.Engine.callback ~live:(live t.rtx) (retransmit t);
  t

(* ------------------------------------------------------------------ *)

(* Record [lsa] as received at [src], the switch that floods or sends
   it, so that it does not forward a returning copy.  In [Reliable]
   mode a switch floods or sends an LSA once, and never one it has
   received: no link then carries two transfers of one LSA, so the
   transfer table needs no lookup by LSA. *)
let at_source t fn src lsa =
  if (not (first_receipt t src lsa)) && t.mode = Reliable then
    invalid_arg
      (Printf.sprintf
         "Flooding.%s: LSA (origin %d, seq %d) already flooded, sent or \
          received at %d"
         fn lsa.Lsa.origin lsa.Lsa.seq src)

let send t ~src ~dst lsa =
  let link =
    match Net.Graph.link t.graph src dst with
    | link -> link
    | exception Not_found ->
      invalid_arg (Printf.sprintf "Flooding.send: no link (%d, %d)" src dst)
  in
  check_lsa t "send" lsa;
  at_source t "send" src lsa;
  let parent = Sim.Trace.context t.trace in
  transfer t ~src ~dst ~link ~parent ~forward:false lsa

let flood_impl t lsa =
  check_lsa t "flood" lsa;
  let origin = lsa.Lsa.origin in
  at_source t "flood" origin lsa;
  Metrics.Registry.bump t.floods.(origin);
  (* The ambient context at flood time (normally the Lsa_originated
     event) roots the whole propagation tree; it must be captured here
     because the per-copy callbacks run later, under other contexts. *)
  let parent = Sim.Trace.context t.trace in
  forward_from t lsa ~at:origin ~from:(-1) ~parent

let flood t lsa =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "flood.dispatch";
  match flood_impl t lsa with
  | () -> Metrics.Phase.leave ph
  | exception e ->
    Metrics.Phase.leave ph;
    raise e

let floods_started t = Metrics.Registry.sum t.floods

let messages_sent t = Metrics.Registry.sum t.messages

let acks_sent t = Metrics.Registry.sum t.acks

let retransmissions t = Metrics.Registry.sum t.retransmitted

let pending_retransmits t = Sim.Slots.live t.rtx.r_ids

(* A failure detector declared [dst] unreachable from [src]: end every
   transfer still spinning toward it, retiring its timeout, instead of
   letting each burn through its remaining backoff.  The breadcrumbs
   come in (origin, seq) order, independent of slot reuse. *)
let abandon_link t ~src ~dst =
  let r = t.rtx in
  let slots = ref [] in
  for slot = 0 to Sim.Slots.used r.r_ids - 1 do
    if r.r_src.(slot) = src && r.r_dst.(slot) = dst then slots := slot :: !slots
  done;
  let by_origin a b =
    let la = r.r_lsa.(a) and lb = r.r_lsa.(b) in
    match Int.compare la.Lsa.origin lb.Lsa.origin with
    | 0 -> Int.compare la.Lsa.seq lb.Lsa.seq
    | c -> c
  in
  let slots = List.sort by_origin !slots in
  List.iter
    (fun slot ->
      Sim.Engine.retire t.engine;
      drop_transfer t slot ~reason:Neighbor_down)
    slots;
  List.length slots

let flood_diameter ~graph ~t_hop =
  float_of_int (Net.Bfs.hop_diameter graph) *. t_hop
