type mode = Hop_by_hop | Reliable

type reliability = {
  rto : float;
  rto_max : float;
  max_retries : int;
}

let default_reliability = { rto = 4.0; rto_max = 64.0; max_retries = 10 }

type transmit = src:int -> dst:int -> base_delay:float -> float array -> int

module Int_tbl = Hashtbl.Make (Int)

(* The sequence numbers one switch has not received from one origin
   below its high-water mark: disjoint half-open intervals [lo, hi),
   highest first.  Only a skipped number opens one (reordering, loss, or
   a unicast addressed to another switch), so in-order arrival keeps the
   list empty. *)
type gaps = No_gap | Gap of { lo : int; hi : int; below : gaps }

(* What one switch has received from one origin: every sequence number
   below [high] outside [gaps]. *)
type received = { mutable high : int; mutable gaps : gaps }

(* Retransmit state for one reliable transfer of [lsa] over [link].  A
   directed link's transfers live in one table keyed [seq * n + origin]
   and leave it on ack, on retry exhaustion or on {!abandon_link}.
   [first] is the trace id of the first data copy's forward event:
   retransmissions and the abandonment hang off it. *)
type 'a rtx = {
  lsa : 'a Lsa.t;
  link : Net.Graph.link;
  forward : bool;
  first : int;
  mutable timer : Sim.Engine.handle option;
  mutable tries : int;
  mutable timeout : float;
}

(* The copies in flight, data and acks, one slot each in parallel
   arrays.  A slot is claimed when its copy is posted and released when
   the copy arrives, so an arrival is a posted slot id rather than a
   closure.  Released slots are reused last first.  A data copy's slot
   holds its LSA, link, [src → dst] direction, kind and forward event's
   trace id; an ack's holds the acked
   LSA (its transfer key), the link and the ack's own direction.  The
   LSA and link arrays are grown with the claiming copy's values as
   filler, as there is no ['a Lsa.t] to start them with. *)
type 'a flight = {
  mutable lsa : 'a Lsa.t array;
  mutable link : Net.Graph.link array;
  mutable src : int array;
  mutable dst : int array;
  mutable kind : kind array;
  mutable fid : int array;
  mutable free : int array;  (** Released slots: a stack of [n_free]. *)
  mutable n_free : int;
  mutable used : int;  (** Slots [0, used) have been claimed at least once. *)
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
          into; {!wire} schedules from them before the next call. *)
  deliver : switch:int -> 'a Lsa.t -> unit;
  trace : Sim.Trace.t;
  seen : received Int_tbl.t;
      (** Keyed [switch * n + origin]: what each switch has received
          from each origin it has heard from. *)
  pending : 'a rtx Int_tbl.t Int_tbl.t;
      (** Reliable mode: keyed [src * n + dst], each directed link's
          transfers awaiting an ack. *)
  flight : 'a flight;
  mutable arrival : Sim.Engine.callback;
      (** Posted with a {!flight} slot for each copy: {!arrive}. *)
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
   there. *)
let first_receipt t switch lsa =
  let seq = lsa.Lsa.seq and key = (switch * t.n) + lsa.Lsa.origin in
  match Int_tbl.find t.seen key with
  | r ->
    if seq >= r.high then begin
      if seq > r.high then
        r.gaps <- Gap { lo = r.high; hi = seq; below = r.gaps };
      r.high <- seq + 1;
      true
    end
    else if in_gaps seq r.gaps then begin
      r.gaps <- fill seq r.gaps;
      true
    end
    else false
  | exception Not_found ->
    let gaps =
      if seq > 0 then Gap { lo = 0; hi = seq; below = No_gap } else No_gap
    in
    Int_tbl.add t.seen key { high = seq + 1; gaps };
    true

(* Sequence numbers start at 0 ({!Lsa.Seq}) and origins are switches:
   the duplicate check's key and intervals rely on both. *)
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

(* Schedule [arrive] for every copy of one [src → dst] transmission;
   [false] when the hook loses them all.  [arrive] reads the link's
   state itself, so a message in flight over a link that fails is lost,
   as on a real wire. *)
let wire t ~src ~dst arrive =
  let n = copies t ~src ~dst in
  for i = 0 to n - 1 do
    ignore (Sim.Engine.schedule t.engine ~delay:t.delays.(i) arrive)
  done;
  n > 0

let grow_flight f ~link lsa =
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
  f.free <- extend f.free 0

(* A slot holding one copy: a released one if any, else a fresh one. *)
let claim t ~kind ~src ~dst ~link ~fid lsa =
  let f = t.flight in
  let slot =
    if f.n_free > 0 then begin
      f.n_free <- f.n_free - 1;
      f.free.(f.n_free)
    end
    else begin
      if f.used = Array.length f.src then grow_flight f ~link lsa;
      f.used <- f.used + 1;
      f.used - 1
    end
  in
  f.lsa.(slot) <- lsa;
  f.link.(slot) <- link;
  f.src.(slot) <- src;
  f.dst.(slot) <- dst;
  f.kind.(slot) <- kind;
  f.fid.(slot) <- fid;
  slot

(* {!wire} for a data copy or an ack: post {!arrive} once per copy, each
   copy in its own slot.  The delays are posted straight from
   [t.delays], so where [Sim.Engine.post] is inlined none is boxed. *)
let put t ~kind ~src ~dst ~link ~fid lsa =
  let n = copies t ~src ~dst in
  for i = 0 to n - 1 do
    Sim.Engine.post t.engine ~delay:t.delays.(i) t.arrival
      (claim t ~kind ~src ~dst ~link ~fid lsa)
  done;
  n > 0

(* The reliable transfers on [src → dst], keyed {!rtx_key}. *)
let link_pending t ~src ~dst =
  let key = (src * t.n) + dst in
  match Int_tbl.find t.pending key with
  | pending -> pending
  | exception Not_found ->
    let pending = Int_tbl.create 8 in
    Int_tbl.add t.pending key pending;
    pending

(* {!check_lsa} bounds the origin by [n] and the seq below by 0, so the
   key is unique per LSA. *)
let rtx_key t lsa = (lsa.Lsa.seq * t.n) + lsa.Lsa.origin

let dropped t ~src ~dst ~fid lsa reason =
  ignore
    (Sim.Trace.emit t.trace ~time:(now t) ~parent:fid
       (Lsa_dropped
          { src; dst; origin = lsa.Lsa.origin; seq = lsa.Lsa.seq; reason }))

(* The ack of transfer [key] on one link: cancel its timer, age it out.
   A late duplicate ack, or one after the abandonment, finds nothing. *)
let ack_received pending key =
  match Int_tbl.find pending key with
  | rtx ->
    Option.iter Sim.Engine.cancel rtx.timer;
    Int_tbl.remove pending key
  | exception Not_found -> ()

(* Abandon one transfer: age it out, account and leave the trace
   breadcrumb.  Its timer has fired or been cancelled, and the removal
   comes first, so a transfer is abandoned at most once. *)
let drop_pending t ~src ~dst pending key rtx ~reason =
  Int_tbl.remove pending key;
  Metrics.Registry.bump t.abandoned.(src);
  if traced t then dropped t ~src ~dst ~fid:rtx.first rtx.lsa reason

(* Count (first copies only), trace and put on the wire one data
   transmission of [lsa] over [link] ([src → dst]); returns the
   forward's trace id (-1 untraced).  Each copy that arrives while
   [link] is up is received at [dst]; fault losses and mid-flight link
   failures leave [Lsa_dropped] children on the forward event instead. *)
let rec send_data t ~src ~dst ~link ~forward ~retransmit ~parent lsa =
  if not retransmit then Metrics.Registry.bump t.messages.(src);
  let fid =
    if traced t then
      Sim.Trace.emit t.trace ~time:(now t)
        ?parent:(if parent >= 0 then Some parent else None)
        (Lsa_forwarded
           { src; dst; origin = lsa.Lsa.origin; seq = lsa.Lsa.seq; retransmit })
    else -1
  in
  let kind = if forward then Flooded else Unicast in
  if (not (put t ~kind ~src ~dst ~link ~fid lsa)) && traced t then
    dropped t ~src ~dst ~fid lsa "fault";
  fid

(* An ack or {!abandon_link} removes the transfer and cancels this
   timer, so when it fires the transfer is live and unacknowledged. *)
and arm_retransmit t ~src ~dst pending key rtx =
  rtx.timer <-
    Some
      (Sim.Engine.schedule t.engine ~delay:rtx.timeout (fun () ->
           if rtx.tries >= t.rel.max_retries then
             drop_pending t ~src ~dst pending key rtx ~reason:"abandoned"
           else begin
             rtx.tries <- rtx.tries + 1;
             Metrics.Registry.bump t.retransmitted.(src);
             ignore
               (send_data t ~src ~dst ~link:rtx.link ~forward:rtx.forward
                  ~retransmit:true ~parent:rtx.first rtx.lsa);
             rtx.timeout <-
               Float.min (2.0 *. rtx.timeout) (t.rel.rto_max *. t.t_hop);
             arm_retransmit t ~src ~dst pending key rtx
           end))

(* One transfer of [lsa] over [link] ([src → dst]): the first data copy
   ([forward] says whether [dst] floods it on).  In [Reliable] mode the
   transfer is also recorded in its link's table and its retransmit
   timer armed, and a transfer still awaiting its ack is not restarted. *)
and transfer t ~src ~dst ~link ~parent ~forward lsa =
  match t.mode with
  | Hop_by_hop ->
    ignore (send_data t ~src ~dst ~link ~forward ~retransmit:false ~parent lsa)
  | Reliable ->
    let pending = link_pending t ~src ~dst and key = rtx_key t lsa in
    if not (Int_tbl.mem pending key) then begin
      let first =
        send_data t ~src ~dst ~link ~forward ~retransmit:false ~parent lsa
      in
      let rtx =
        {
          lsa;
          link;
          forward;
          first;
          timer = None;
          tries = 0;
          timeout = t.rel.rto *. t.t_hop;
        }
      in
      Int_tbl.add pending key rtx;
      arm_retransmit t ~src ~dst pending key rtx
    end

(* One data copy arriving at [switch] from [from] over [link].  In
   [Reliable] mode every copy is acked, duplicates included: it may be a
   retransmission whose predecessor's ack was lost.  Either way the LSA
   is delivered on first receipt only; a flooded copy ([forward]) is
   then forwarded on every live link except the arrival link.  A traced
   delivery runs, forwarding included, under its [Lsa_delivered]
   event's context. *)
and receive t lsa ~link ~at:switch ~from ~forward ~fid =
  (match t.mode with
  | Reliable ->
    Metrics.Registry.bump t.acks.(switch);
    ignore (put t ~kind:Ack ~src:switch ~dst:from ~link ~fid:(-1) lsa)
  | Hop_by_hop -> ());
  if first_receipt t switch lsa then
    if traced t then begin
      let did =
        Sim.Trace.emit t.trace ~time:(now t) ~parent:fid
          (Lsa_delivered
             {
               switch;
               source = from;
               origin = lsa.Lsa.origin;
               seq = lsa.Lsa.seq;
             })
      in
      Sim.Trace.with_context t.trace did (fun () ->
          t.deliver ~switch lsa;
          if forward then forward_from t lsa ~at:switch ~from ~parent:did)
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
  and fid = f.fid.(slot) in
  f.free.(f.n_free) <- slot;
  f.n_free <- f.n_free + 1;
  match kind with
  | Ack ->
    if Net.Graph.is_up link then
      ack_received (link_pending t ~src:dst ~dst:src) (rtx_key t lsa)
  | Flooded | Unicast ->
    if Net.Graph.is_up link then
      receive t lsa ~link ~at:dst ~from:src ~forward:(kind = Flooded) ~fid
    else if traced t then dropped t ~src ~dst ~fid lsa "link-down"

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
      seen = Int_tbl.create 64;
      pending = Int_tbl.create 64;
      flight =
        {
          lsa = [||];
          link = [||];
          src = [||];
          dst = [||];
          kind = [||];
          fid = [||];
          free = [||];
          n_free = 0;
          used = 0;
        };
      arrival = Sim.Engine.callback ignore;
      floods = per_switch "flood.floods";
      messages = per_switch "flood.messages";
      acks = per_switch "flood.acks";
      retransmitted = per_switch "flood.retransmissions";
      abandoned = per_switch "flood.abandoned";
    }
  in
  t.arrival <- Sim.Engine.callback (arrive t);
  t

(* ------------------------------------------------------------------ *)

let send t ~src ~dst lsa =
  let link =
    match Net.Graph.link t.graph src dst with
    | link -> link
    | exception Not_found ->
      invalid_arg (Printf.sprintf "Flooding.send: no link (%d, %d)" src dst)
  in
  check_lsa t "send" lsa;
  let parent = Sim.Trace.context t.trace in
  ignore (first_receipt t src lsa);
  transfer t ~src ~dst ~link ~parent ~forward:false lsa

let flood_impl t lsa =
  check_lsa t "flood" lsa;
  let origin = lsa.Lsa.origin in
  Metrics.Registry.bump t.floods.(origin);
  (* The ambient context at flood time (normally the Lsa_originated
     event) roots the whole propagation tree; it must be captured here
     because the per-copy callbacks run later, under other contexts. *)
  let parent = Sim.Trace.context t.trace in
  ignore (first_receipt t origin lsa);
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

let deliveries_abandoned t = Metrics.Registry.sum t.abandoned

let pending_retransmits t =
  Int_tbl.fold (fun _ pending acc -> acc + Int_tbl.length pending) t.pending 0

(* A failure detector declared [dst] unreachable from [src]: cancel every
   transfer still spinning toward it instead of letting each burn through
   its remaining backoff.  The link's keys are sorted by origin, then by
   seq, so the [Lsa_dropped] breadcrumbs come in an order independent of
   hash layout. *)
let abandon_link t ~src ~dst =
  let pending = link_pending t ~src ~dst in
  let by_origin a b =
    match Int.compare (a mod t.n) (b mod t.n) with
    | 0 -> Int.compare a b
    | c -> c
  in
  let keys =
    List.sort by_origin (Int_tbl.fold (fun key _ acc -> key :: acc) pending [])
  in
  List.iter
    (fun key ->
      match Int_tbl.find pending key with
      | rtx ->
        Option.iter Sim.Engine.cancel rtx.timer;
        drop_pending t ~src ~dst pending key rtx ~reason:"neighbor-down"
      | exception Not_found -> ())
    keys;
  List.length keys

let flood_diameter ~graph ~t_hop =
  float_of_int (Net.Bfs.hop_diameter graph) *. t_hop
