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
  t_hop : float;
  mode : mode;
  rel : reliability;
  transmit : transmit;
  deliver : switch:int -> 'a Lsa.t -> unit;
  trace : Sim.Trace.t;
  seen : (int * int, unit) Hashtbl.t array;
      (** Per switch: (origin, seq) pairs already received. *)
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

let default_transmit ~src:_ ~dst:_ ~base_delay = [ base_delay ]

let create ~engine ~graph ~t_hop ?(mode = Hop_by_hop)
    ?(reliability = default_reliability) ?(transmit = default_transmit)
    ~deliver () =
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
    t_hop;
    mode;
    rel = reliability;
    transmit;
    deliver;
    trace = Sim.Engine.trace engine;
    seen = Array.init n (fun _ -> Hashtbl.create 64);
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

(* Schedule every surviving copy of one link transmission.  Link state is
   re-checked at arrival time, so a message in flight over a link that
   fails is lost, as on a real wire. *)
let transmit_copies t ~src ~dst k =
  List.iter
    (fun delay ->
      ignore
        (Sim.Engine.schedule t.engine ~delay (fun () ->
             if Net.Graph.link_is_up t.graph src dst then k ())))
    (t.transmit ~src ~dst ~base_delay:t.t_hop)

(* Count (first copies only), trace and schedule the copies of one data
   transmission; returns the forward's trace id (-1 untraced).  [k fid]
   runs per copy that arrives over a live link; fault losses and
   mid-flight link failures leave [Lsa_dropped] children on the forward
   event instead. *)
let send_data t ~src ~dst ~retransmit ~parent lsa k =
  if not retransmit then Metrics.Registry.bump t.messages.(src);
  let origin = lsa.Lsa.origin and seq = lsa.Lsa.seq in
  let fid =
    if traced t then
      Sim.Trace.emit t.trace ~time:(now t)
        ?parent:(if parent >= 0 then Some parent else None)
        (Lsa_forwarded { src; dst; origin; seq; retransmit })
    else -1
  in
  let copies = t.transmit ~src ~dst ~base_delay:t.t_hop in
  if copies = [] && traced t then
    ignore
      (Sim.Trace.emit t.trace ~time:(now t) ~parent:fid
         (Lsa_dropped { src; dst; origin; seq; reason = "fault" }));
  List.iter
    (fun delay ->
      ignore
        (Sim.Engine.schedule t.engine ~delay (fun () ->
             if Net.Graph.link_is_up t.graph src dst then k fid
             else if traced t then
               ignore
                 (Sim.Trace.emit t.trace ~time:(now t) ~parent:fid
                    (Lsa_dropped { src; dst; origin; seq; reason = "link-down" })))))
    copies;
  fid

let deliver_traced t lsa ~switch ~source ~fid k =
  let did =
    if traced t then
      Sim.Trace.emit t.trace ~time:(now t) ~parent:fid
        (Lsa_delivered
           { switch; source; origin = lsa.Lsa.origin; seq = lsa.Lsa.seq })
    else -1
  in
  Sim.Trace.with_context t.trace did (fun () ->
      t.deliver ~switch lsa;
      k did)

(* ------------------------------------------------------------------ *)
(* Retransmit state (Reliable) *)

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

let rec arm_retransmit t key lsa rtx ~arrive =
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
                 (send_data t ~src ~dst ~retransmit:true ~parent:rtx.rtx_first
                    lsa arrive);
               rtx.timeout <-
                 Float.min (2.0 *. rtx.timeout) (t.rel.rto_max *. t.t_hop);
               arm_retransmit t key lsa rtx ~arrive
             end))

let ack_received t key =
  match Hashtbl.find_opt t.pending key with
  | Some rtx ->
    Option.iter Sim.Engine.cancel rtx.rtx_handle;
    Hashtbl.remove t.pending key
  | None -> ()  (* late duplicate ack, or the sender already gave up *)

let send_ack t ~src ~dst key =
  Metrics.Registry.bump t.acks.(src);
  transmit_copies t ~src ~dst (fun () -> ack_received t key)

(* ------------------------------------------------------------------ *)
(* The per-hop transport *)

(* One transfer of [lsa] over the link [src → dst]: the first data copy,
   and [arrive fid] per copy landing over a live link.  In [Reliable]
   mode the transfer is also recorded in [pending] and its retransmit
   timer armed, and a transfer still awaiting its ack is not restarted;
   [on_giveup] fires once if the retries run out — unicast
   resynchronisation uses it to count a neighbor exchange as failed. *)
let transfer t ~src ~dst ~parent ~on_giveup ~arrive lsa =
  if not (acked t) then
    ignore (send_data t ~src ~dst ~retransmit:false ~parent lsa arrive)
  else begin
    let key = (src, dst, Lsa.id lsa) in
    if not (Hashtbl.mem t.pending key) then begin
      let fid = send_data t ~src ~dst ~retransmit:false ~parent lsa arrive in
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
      arm_retransmit t key lsa rtx ~arrive
    end
  end

(* One data copy arriving at [switch] from [from].  In [Reliable] mode
   every copy is acked, duplicates included: it may be a retransmission
   whose predecessor's ack was lost.  A flooded copy ([forward]) is
   delivered on first receipt only, then forwarded on every live link
   except the arrival link.  A unicast copy is never forwarded, and only
   [Reliable] deduplicates it: a hop-by-hop unicast delivers every copy
   that arrives. *)
let rec receive t lsa ~at:switch ~from ~forward ~fid =
  let acked = acked t in
  if acked then send_ack t ~src:switch ~dst:from (from, switch, Lsa.id lsa);
  if not (forward || acked) then
    deliver_traced t lsa ~switch ~source:from ~fid (fun _ -> ())
  else begin
    let key = Lsa.id lsa in
    if not (Hashtbl.mem t.seen.(switch) key) then begin
      Hashtbl.replace t.seen.(switch) key ();
      if forward then
        deliver_traced t lsa ~switch ~source:from ~fid (fun did ->
            Net.Graph.iter_neighbors t.graph switch (fun next _ ->
                if next <> from then
                  transfer t ~src:switch ~dst:next ~parent:did
                    ~on_giveup:no_giveup lsa ~arrive:(fun fid ->
                      receive t lsa ~at:next ~from:switch ~forward:true ~fid)))
      else deliver_traced t lsa ~switch ~source:from ~fid (fun _ -> ())
    end
  end

(* ------------------------------------------------------------------ *)

let send t ~src ~dst ?(on_giveup = no_giveup) lsa =
  if not (Net.Graph.has_edge t.graph src dst) then
    invalid_arg (Printf.sprintf "Flooding.send: no link (%d, %d)" src dst);
  let parent = Sim.Trace.context t.trace in
  if acked t then Hashtbl.replace t.seen.(src) (Lsa.id lsa) ();
  transfer t ~src ~dst ~parent ~on_giveup lsa ~arrive:(fun fid ->
      receive t lsa ~at:dst ~from:src ~forward:false ~fid)

let flood_impl t lsa =
  let origin = lsa.Lsa.origin in
  Metrics.Registry.bump t.floods.(origin);
  (* The ambient context at flood time (normally the Lsa_originated
     event) roots the whole propagation tree; it must be captured here
     because the per-copy callbacks run later, under other contexts. *)
  let parent = Sim.Trace.context t.trace in
  Hashtbl.replace t.seen.(origin) (Lsa.id lsa) ();
  Net.Graph.iter_neighbors t.graph origin (fun next _ ->
      transfer t ~src:origin ~dst:next ~parent ~on_giveup:no_giveup lsa
        ~arrive:(fun fid ->
          receive t lsa ~at:next ~from:origin ~forward:true ~fid))

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
