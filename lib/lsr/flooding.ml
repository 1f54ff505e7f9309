type mode = Hop_by_hop | Reliable

type reliability = {
  rto : float;
  rto_max : float;
  max_retries : int;
}

let default_reliability = { rto = 4.0; rto_max = 64.0; max_retries = 10 }

(* Worst-case simulated time (in t_hop multiples) between a transfer's
   first transmission and its giveup: the sum of all max_retries + 1
   waits, each double the last up to rto_max. *)
let giveup_span_hops rel =
  let rec go timeout i acc =
    if i > rel.max_retries then acc
    else go (Float.min (2.0 *. timeout) rel.rto_max) (i + 1) (acc +. timeout)
  in
  go rel.rto 0 0.0

type transmit = src:int -> dst:int -> base_delay:float -> float list

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

(* Retransmit state for one in-flight (src, dst, lsa) transfer.  Entries
   live in [pending] and age out on ack or on retry exhaustion.
   [rtx_first] is the trace id of the first data copy's forward event;
   retransmissions and the final abandonment hang off it causally. *)
type rtx = {
  mutable rtx_handle : Sim.Engine.handle option;
  mutable tries : int;
  mutable timeout : float;
  rtx_first : int;
  rtx_origin : int;
  rtx_seq : int;
  rtx_giveup : unit -> unit;
      (* Stored so an external cancellation ({!abandon_link}) resolves
         the transfer through the same single giveup path the timer
         uses; removal from [pending] before either call site fires it
         makes exactly-once structural. *)
}

type 'a t = {
  engine : Sim.Engine.t;
  graph : Net.Graph.t;
  n : int;
  t_hop : float;
  mode : mode;
  rel : reliability;
  transmit : transmit option;  (** [None]: one copy after [t_hop]. *)
  deliver : switch:int -> 'a Lsa.t -> unit;
  trace : Sim.Trace.t;
  seen : received Int_tbl.t;
      (** Keyed [switch * n + origin]: what each switch has received
          from each origin it has heard from. *)
  pending : (int * int * (int * int), rtx) Hashtbl.t;
      (** Reliable mode: (src, dst, lsa id) transfers awaiting an ack. *)
  floods : Metrics.Registry.counter array;
  messages : Metrics.Registry.counter array;
  acks : Metrics.Registry.counter array;
  retransmitted : Metrics.Registry.counter array;
  abandoned : Metrics.Registry.counter array;
      (** The [flood.*] counters, one handle per origin or sending
          switch. *)
}

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
  {
    engine;
    graph;
    n;
    t_hop;
    mode;
    rel = reliability;
    transmit;
    deliver;
    trace = Sim.Engine.trace engine;
    seen = Int_tbl.create 64;
    pending = Hashtbl.create 64;
    floods = per_switch "flood.floods";
    messages = per_switch "flood.messages";
    acks = per_switch "flood.acks";
    retransmitted = per_switch "flood.retransmissions";
    abandoned = per_switch "flood.abandoned";
  }

(* Only [Reliable] acknowledges: it alone acks data copies, keeps
   retransmit state and deduplicates unicast arrivals. *)
let acked t = match t.mode with Reliable -> true | Hop_by_hop -> false

let no_giveup () = ()

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

(* Schedule every surviving copy of one ack.  The link's state is read
   at arrival time, so a message in flight over a link that fails is
   lost, as on a real wire. *)
let send_ack_copies t ~src ~dst ~link k =
  let schedule delay =
    ignore
      (Sim.Engine.schedule t.engine ~delay (fun () ->
           if Net.Graph.is_up link then k ()))
  in
  match t.transmit with
  | None -> schedule t.t_hop
  | Some transmit ->
    List.iter schedule (transmit ~src ~dst ~base_delay:t.t_hop)

let ack_received t key =
  match Hashtbl.find_opt t.pending key with
  | Some rtx ->
    Option.iter Sim.Engine.cancel rtx.rtx_handle;
    Hashtbl.remove t.pending key
  | None -> ()  (* late duplicate ack, or the sender already gave up *)

let send_ack t ~src ~dst ~link key =
  Metrics.Registry.bump t.acks.(src);
  send_ack_copies t ~src ~dst ~link (fun () -> ack_received t key)

(* Abandon one pending transfer: age the entry out, account, leave the
   trace breadcrumb, and fire its giveup callback.  Both callers remove
   the entry from [pending] before anything observable runs, so a
   transfer's giveup can fire at most once however the timer and an
   external {!abandon_link} interleave. *)
let drop_pending t key rtx ~reason =
  let src, dst, _ = key in
  Hashtbl.remove t.pending key;
  Metrics.Registry.bump t.abandoned.(src);
  if traced t then
    ignore
      (Sim.Trace.emit t.trace ~time:(now t) ~parent:rtx.rtx_first
         (Lsa_dropped
            { src; dst; origin = rtx.rtx_origin; seq = rtx.rtx_seq; reason }));
  rtx.rtx_giveup ()

(* Count (first copies only), trace and schedule the copies of one data
   transmission over [link] ([src → dst]); returns the forward's trace
   id (-1 untraced).  Each copy that arrives while [link] is up is
   received at [dst]; fault losses and mid-flight link failures leave
   [Lsa_dropped] children on the forward event instead.  Without a
   [transmit] hook the one copy is scheduled directly. *)
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
  (match t.transmit with
  | None -> schedule_copy t ~src ~dst ~link ~forward ~fid lsa t.t_hop
  | Some transmit -> (
    match transmit ~src ~dst ~base_delay:t.t_hop with
    | [] -> if traced t then dropped t ~src ~dst ~fid lsa "fault"
    | copies ->
      List.iter (schedule_copy t ~src ~dst ~link ~forward ~fid lsa) copies));
  fid

and schedule_copy t ~src ~dst ~link ~forward ~fid lsa delay =
  ignore
    (Sim.Engine.schedule t.engine ~delay (fun () ->
         if Net.Graph.is_up link then
           receive t lsa ~link ~at:dst ~from:src ~forward ~fid
         else if traced t then dropped t ~src ~dst ~fid lsa "link-down"))

and dropped t ~src ~dst ~fid lsa reason =
  ignore
    (Sim.Trace.emit t.trace ~time:(now t) ~parent:fid
       (Lsa_dropped
          { src; dst; origin = lsa.Lsa.origin; seq = lsa.Lsa.seq; reason }))

and arm_retransmit t key lsa rtx ~link ~forward =
  let src, dst, _ = key in
  rtx.rtx_handle <-
    Some
      (Sim.Engine.schedule t.engine ~delay:rtx.timeout (fun () ->
           (* The entry is removed the moment an ack arrives (or the
              transfer is externally abandoned), so reaching this point
              with it still present means the transfer is live and
              unacknowledged. *)
           if Hashtbl.mem t.pending key then
             if rtx.tries >= t.rel.max_retries then
               drop_pending t key rtx ~reason:"abandoned"
             else begin
               rtx.tries <- rtx.tries + 1;
               Metrics.Registry.bump t.retransmitted.(src);
               ignore
                 (send_data t ~src ~dst ~link ~forward ~retransmit:true
                    ~parent:rtx.rtx_first lsa);
               rtx.timeout <-
                 Float.min (2.0 *. rtx.timeout) (t.rel.rto_max *. t.t_hop);
               arm_retransmit t key lsa rtx ~link ~forward
             end))

(* One transfer of [lsa] over [link] ([src → dst]): the first data copy,
   received at [dst] per copy landing while the link is up ([forward]
   says whether [dst] floods it on).  In [Reliable] mode the transfer is
   also recorded in [pending] and its retransmit timer armed, and a
   transfer still awaiting its ack is not restarted; [on_giveup] fires
   once if the retries run out — unicast resynchronisation uses it to
   count a neighbor exchange as failed. *)
and transfer t ~src ~dst ~link ~parent ~on_giveup ~forward lsa =
  if not (acked t) then
    ignore (send_data t ~src ~dst ~link ~forward ~retransmit:false ~parent lsa)
  else begin
    let key = (src, dst, Lsa.id lsa) in
    if not (Hashtbl.mem t.pending key) then begin
      let fid =
        send_data t ~src ~dst ~link ~forward ~retransmit:false ~parent lsa
      in
      let rtx =
        {
          rtx_handle = None;
          tries = 0;
          timeout = t.rel.rto *. t.t_hop;
          rtx_first = fid;
          rtx_origin = lsa.Lsa.origin;
          rtx_seq = lsa.Lsa.seq;
          rtx_giveup = on_giveup;
        }
      in
      Hashtbl.add t.pending key rtx;
      arm_retransmit t key lsa rtx ~link ~forward
    end
  end

(* One data copy arriving at [switch] from [from] over [link].  In
   [Reliable] mode every copy is acked, duplicates included: it may be a
   retransmission whose predecessor's ack was lost.  A flooded copy
   ([forward]) is delivered on first receipt only, then forwarded on
   every live link except the arrival link.  A unicast copy is never
   forwarded, and only [Reliable] deduplicates it: a hop-by-hop unicast
   delivers every copy that arrives.  A traced delivery runs, forwarding
   included, under its [Lsa_delivered] event's context. *)
and receive t lsa ~link ~at:switch ~from ~forward ~fid =
  let acked = acked t in
  if acked then
    send_ack t ~src:switch ~dst:from ~link (from, switch, Lsa.id lsa);
  if (not (forward || acked)) || first_receipt t switch lsa then
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

and forward_from t lsa ~at ~from ~parent =
  Net.Graph.iter_links t.graph at (fun next link ->
      if next <> from then
        transfer t ~src:at ~dst:next ~link ~parent ~on_giveup:no_giveup
          ~forward:true lsa)

(* ------------------------------------------------------------------ *)

let send t ~src ~dst ?(on_giveup = no_giveup) lsa =
  let link =
    match Net.Graph.link t.graph src dst with
    | link -> link
    | exception Not_found ->
      invalid_arg (Printf.sprintf "Flooding.send: no link (%d, %d)" src dst)
  in
  check_lsa t "send" lsa;
  let parent = Sim.Trace.context t.trace in
  if acked t then ignore (first_receipt t src lsa);
  transfer t ~src ~dst ~link ~parent ~on_giveup ~forward:false lsa

let flood_impl t lsa =
  check_lsa t "flood" lsa;
  let origin = lsa.Lsa.origin in
  Metrics.Registry.bump t.floods.(origin);
  (* The ambient context at flood time (normally the Lsa_originated
     event) roots the whole propagation tree; it must be captured here
     because the per-copy callbacks run later, under other contexts. *)
  let parent = Sim.Trace.context t.trace in
  ignore (first_receipt t origin lsa);
  Net.Graph.iter_links t.graph origin (fun next link ->
      transfer t ~src:origin ~dst:next ~link ~parent ~on_giveup:no_giveup
        ~forward:true lsa)

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

let pending_retransmits t = Hashtbl.length t.pending

(* A failure detector declared [dst] unreachable from [src]: cancel every
   transfer still spinning toward it instead of letting each burn through
   its remaining backoff.  Keys are collected then sorted, so giveup
   callbacks fire in a deterministic order independent of hash layout. *)
let abandon_link t ~src ~dst =
  let keys =
    Hashtbl.fold
      (fun ((s, d, _) as key) _ acc ->
        if s = src && d = dst then key :: acc else acc)
      t.pending []
    |> List.sort (fun (_, _, (ao, as_)) (_, _, (bo, bs)) ->
           match Int.compare ao bo with 0 -> Int.compare as_ bs | c -> c)
  in
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.pending key with
      | Some rtx ->
        Option.iter Sim.Engine.cancel rtx.rtx_handle;
        drop_pending t key rtx ~reason:"neighbor-down"
      | None -> ())
    keys;
  List.length keys

let flood_diameter ~graph ~t_hop =
  float_of_int (Net.Bfs.hop_diameter graph) *. t_hop
