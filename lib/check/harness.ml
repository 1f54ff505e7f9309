module Int_set = Set.Make (Int)

type event =
  | Action of Workload.Events.action
  | Crash of int
  | Recover of int

type action = Deliver of { dst : int; msg : int } | Complete of int

type msg = {
  origin : int;
  payload : Dgmc.Switch.payload;  (* a [Resync] has exactly one pending entry *)
  past : Int_set.t;
      (* Ids the origin had delivered or flooded when this was flooded:
         every one of them causally precedes this message at every
         destination (triangle inequality of hop-by-hop flooding). *)
  fp : string;
}

(* One switch's timers: [now] is its private clock, the due time of the
   timer that fired last; [due] holds its pending timers by due time,
   in start order among equal times — the order an engine of its own
   would run them in. *)
type timers = { now : float; due : (float * Dgmc.Switch.timer) list }

type t = {
  n : int;
  net_graph : Net.Graph.t;  (* ground truth *)
  switches : Dgmc.Switch.t array;
  fps : string array;
      (* Per switch: its rendered fingerprint, [""] once an action or
         event may have changed it. *)
  timers : timers array;
  msgs : (int, msg) Hashtbl.t;
  mutable next_id : int;
  mutable pending : (int * int) list;  (* (dst, msg id), arrival order *)
  known : Int_set.t array;
      (* Per switch: causal context = delivered ids, their pasts, and own
         floods.  Becomes the [past] of this switch's next flood. *)
  clock : Lsr.Lsdb.clock;  (* ground-truth link versions *)
  crashed : bool array;
      (* Forwarding-plane outage, mirroring Faults.Plan's crash windows:
         a crashed switch neither sends nor receives (messages are LOST,
         not queued), but its protocol state and computations survive. *)
  mutable truth : (Dgmc.Mc_id.t * Dgmc.Member.t) list;
}

let msg_exn t id =
  match Hashtbl.find_opt t.msgs id with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Harness: unknown message %d" id)

let payload_fp : Dgmc.Switch.payload -> string = function
  | Mc l -> Fingerprint.mc_lsa l
  | Link e -> Fingerprint.link_event e
  | Resync m ->
    (* One line: the blocker lists and digest are line-oriented. *)
    String.map
      (fun c -> if Char.equal c '\n' then ';' else c)
      (Dgmc.Resync.to_string m)

let record t origin payload =
  let id = t.next_id in
  t.next_id <- id + 1;
  let m = { origin; payload; past = t.known.(origin); fp = payload_fp payload } in
  Hashtbl.replace t.msgs id m;
  t.known.(origin) <- Int_set.add id t.known.(origin);
  id

let flood t origin payload =
  let id = record t origin payload in
  if not t.crashed.(origin) then begin
    (* Deliveries to crashed switches are dropped at flood time, not
       queued: the fault model loses messages during an outage. *)
    let additions = ref [] in
    for dst = t.n - 1 downto 0 do
      if dst <> origin && not t.crashed.(dst) then
        additions := (dst, id) :: !additions
    done;
    t.pending <- t.pending @ !additions
  end

(* Unicast transport for resynchronisation messages.  A send to or
   from a crashed switch is lost, as the reliable transport's would be
   once its retries run out; a recoverer whose summaries are all lost
   keeps its session open, holding no work. *)
let unicast t origin dst msg =
  if not (t.crashed.(origin) || t.crashed.(dst)) then begin
    let id = record t origin (Dgmc.Switch.Resync msg) in
    t.pending <- t.pending @ [ (dst, id) ]
  end

let start t i timer ~delay =
  let tm = t.timers.(i) in
  let time = tm.now +. delay in
  let rec insert = function
    | ((due, _) as e) :: rest when due <= time -> e :: insert rest
    | rest -> (time, timer) :: rest
  in
  t.timers.(i) <- { tm with due = insert tm.due }

let connect t =
  Array.iteri
    (fun i sw ->
      Dgmc.Switch.connect sw (function
        | Flood payload -> flood t i payload
        | Send { peer; msg } -> unicast t i peer msg
        | Changed -> ()
        | Start { timer; delay } -> start t i timer ~delay))
    t.switches

let create ~graph ~config =
  if Option.is_some config.Dgmc.Config.health then
    invalid_arg "Harness.create: the link-health layer is not modelled";
  (* The switches' image store and the ground truth the harness mutates
     hold two separate copies of the scenario's graph. *)
  let boot = Lsr.Lsdb.boot graph in
  let graph = Net.Graph.copy graph in
  let n = Net.Graph.n_nodes graph in
  (* The switches read a clock that never moves: only their telemetry,
     off here, reads it.  Their timers run on [timers]. *)
  let engine = Sim.Engine.create () in
  let t =
    {
      n;
      net_graph = graph;
      switches =
        Array.init n (fun id ->
            Dgmc.Switch.create ~id ~n ~config ~engine ~boot);
      fps = Array.make n "";
      timers = Array.make n { now = 0.0; due = [] };
      msgs = Hashtbl.create 64;
      next_id = 0;
      pending = [];
      known = Array.make n Int_set.empty;
      clock = Lsr.Lsdb.clock ();
      crashed = Array.make n false;
      truth = [];
    }
  in
  connect t;
  t

let render_fps t =
  Array.iteri
    (fun i sw ->
      if String.equal t.fps.(i) "" then t.fps.(i) <- Fingerprint.switch sw)
    t.switches

(* The copy carries [t]'s fingerprints, rendered first, so that each
   branch re-renders only the switch its action touches. *)
let copy t =
  render_fps t;
  let c =
    {
      t with
      net_graph = Net.Graph.copy t.net_graph;
      switches = Array.map Dgmc.Switch.copy t.switches;
      fps = Array.copy t.fps;
      timers = Array.copy t.timers;
      msgs = Hashtbl.copy t.msgs;
      known = Array.copy t.known;
      clock = Lsr.Lsdb.copy_clock t.clock;
      crashed = Array.copy t.crashed;
    }
  in
  connect c;
  c

let switches t = t.switches

let pending_count t =
  List.length t.pending
  + Array.fold_left (fun acc tm -> acc + List.length tm.due) 0 t.timers
let graph t = t.net_graph
let truth t = t.truth

let truth_members t mc =
  match List.find_opt (fun (m, _) -> Dgmc.Mc_id.equal m mc) t.truth with
  | Some (_, m) -> m
  | None -> Dgmc.Member.empty

let set_truth t mc members =
  t.truth <-
    (mc, members)
    :: List.filter (fun (m, _) -> not (Dgmc.Mc_id.equal m mc)) t.truth
    |> List.sort (fun (a, _) (b, _) -> Dgmc.Mc_id.compare a b)

(* An event may touch any switch; an action touches only the one it
   runs on. *)
let inject t ev =
  Array.fill t.fps 0 t.n "";
  match ev with
  | Action (Join { switch; mc; role }) ->
    set_truth t mc (Dgmc.Member.join (truth_members t mc) switch role);
    Dgmc.Switch.host_join t.switches.(switch) mc role
  | Action (Leave { switch; mc }) ->
    set_truth t mc (Dgmc.Member.leave (truth_members t mc) switch);
    Dgmc.Switch.host_leave t.switches.(switch) mc
  | Action ((Link_down (u, v) | Link_up (u, v)) as a) ->
    let up = match a with Link_up _ -> true | _ -> false in
    Net.Graph.set_link t.net_graph u v ~up;
    Dgmc.Switch.detect_link t.switches
      (Lsr.Lsdb.stamp t.clock (min u v) (max u v) ~up)
  | Crash i ->
    if t.crashed.(i) then invalid_arg "Harness: switch already crashed";
    t.crashed.(i) <- true;
    (* Everything in flight to or from the crashed switch is lost, as
       under Faults.Plan (transmissions blocked both ways). *)
    t.pending <-
      List.filter
        (fun (d, id) -> d <> i && (msg_exn t id).origin <> i)
        t.pending
  | Recover i ->
    if not t.crashed.(i) then invalid_arg "Harness: switch not crashed";
    t.crashed.(i) <- false;
    Dgmc.Switch.begin_resync t.switches.(i)

let pending_to t =
  let arr = Array.make t.n Int_set.empty in
  List.iter (fun (d, id) -> arr.(d) <- Int_set.add id arr.(d)) t.pending;
  arr

let blocker_fps t ptol (m : msg) d =
  Int_set.inter m.past ptol.(d)
  |> Int_set.elements
  |> List.map (fun id -> (msg_exn t id).fp)
  |> List.sort String.compare

(* Two enabled deliveries are interchangeable — lead to digest-identical
   successors — when they target the same switch with the same payload
   AND play the same role in everyone else's causal structure: same
   membership in each switch's known set, same relation to every other
   pending message.  Only then is it sound to expand just one. *)
let delivery_signature t ptol (d, id) =
  let m = msg_exn t id in
  let ctx =
    Array.to_list t.known
    |> List.map (fun k -> if Int_set.mem id k then "1" else "0")
    |> String.concat ""
  in
  let rel =
    List.filter_map
      (fun (d', id') ->
        if d' = d && id' = id then None
        else
          let m' = msg_exn t id' in
          let tag =
            if id' = id then
              "self:" ^ String.concat ";" (blocker_fps t ptol m d')
            else if Int_set.mem id m'.past then "blocks"
            else "-"
          in
          Some (Printf.sprintf "%d|%s|%s" d' m'.fp tag))
      t.pending
    |> List.sort String.compare
  in
  Printf.sprintf "%d|%s|%s|%s" d m.fp ctx (String.concat "&" rel)

let enabled t =
  let ptol = pending_to t in
  let causally_free (d, id) =
    Int_set.is_empty (Int_set.inter (msg_exn t id).past ptol.(d))
  in
  let seen = Hashtbl.create 16 in
  let deliveries =
    List.filter
      (fun p ->
        causally_free p
        &&
        let s = delivery_signature t ptol p in
        if Hashtbl.mem seen s then false
        else begin
          Hashtbl.add seen s ();
          true
        end)
      t.pending
    |> List.map (fun (d, id) -> Deliver { dst = d; msg = id })
  in
  let completions =
    List.init t.n (fun i -> i)
    |> List.filter_map (fun i ->
           if t.timers.(i).due <> [] then Some (Complete i) else None)
  in
  deliveries @ completions

let remove_pending t dst id =
  let rec go = function
    | [] -> invalid_arg "Harness.apply: message not pending at destination"
    | (d, i) :: rest when d = dst && i = id -> rest
    | p :: rest -> p :: go rest
  in
  t.pending <- go t.pending

let apply t action =
  match action with
  | Deliver { dst; msg } ->
    let m = msg_exn t msg in
    let ptol = pending_to t in
    if not (Int_set.is_empty (Int_set.inter m.past ptol.(dst))) then
      invalid_arg "Harness.apply: delivery not causally enabled";
    remove_pending t dst msg;
    t.fps.(dst) <- "";
    t.known.(dst) <- Int_set.add msg (Int_set.union t.known.(dst) m.past);
    Dgmc.Switch.deliver t.switches.(dst) m.payload
  | Complete i -> (
    match t.timers.(i).due with
    | [] -> invalid_arg "Harness.apply: no timer pending at switch"
    | (now, timer) :: due ->
      t.timers.(i) <- { now; due };
      t.fps.(i) <- "";
      Dgmc.Switch.fire t.switches.(i) timer)

(* Same selection rule as [enabled]'s head — first causally-free
   delivery in pool order, else first switch with a pending computation
   — but without the interchangeability signatures.  [settle] calls it
   once per action, and the explorer settles the setup once per domain
   and wave at most; each popped state then only replays its prefix. *)
let first_enabled t =
  let ptol = pending_to t in
  match
    List.find_opt
      (fun (d, id) ->
        Int_set.is_empty (Int_set.inter (msg_exn t id).past ptol.(d)))
      t.pending
  with
  | Some (d, id) -> Some (Deliver { dst = d; msg = id })
  | None ->
    let rec comp i =
      if i >= t.n then None
      else if t.timers.(i).due <> [] then Some (Complete i)
      else comp (i + 1)
    in
    comp 0

let settle t =
  let budget = ref 200_000 in
  let rec loop () =
    match first_enabled t with
    | None -> ()
    | Some a ->
      decr budget;
      if !budget <= 0 then invalid_arg "Harness.settle: no quiescence reached";
      apply t a;
      loop ()
  in
  loop ()

let digest t =
  let ptol = pending_to t in
  let b = Buffer.create 2048 in
  render_fps t;
  Array.iter
    (fun fp ->
      Buffer.add_string b fp;
      Buffer.add_char b '\n')
    t.fps;
  let pool =
    List.map
      (fun (d, id) ->
        let m = msg_exn t id in
        Printf.sprintf "%d|%s|[%s]" d m.fp
          (String.concat ";" (blocker_fps t ptol m d)))
      t.pending
    |> List.sort String.compare
  in
  List.iter
    (fun line ->
      Buffer.add_string b line;
      Buffer.add_char b '\n')
    pool;
  Array.iteri
    (fun i k ->
      let entries =
        List.filter_map
          (fun (d, id) ->
            if Int_set.mem id k then
              Some (Printf.sprintf "%d:%s" d (msg_exn t id).fp)
            else None)
          t.pending
        |> List.sort String.compare
      in
      Buffer.add_string b (Printf.sprintf "k%d=[%s]\n" i (String.concat ";" entries)))
    t.known;
  List.iter
    (fun (mc, m) ->
      Buffer.add_string b (Fingerprint.mc_id mc);
      Buffer.add_char b '=';
      Buffer.add_string b (Fingerprint.members m);
      Buffer.add_char b '\n')
    t.truth;
  Buffer.add_string b "crashed=";
  Array.iter (fun c -> Buffer.add_char b (if c then '1' else '0')) t.crashed;
  Buffer.add_char b '\n';
  Buffer.add_string b (Fingerprint.graph_links t.net_graph);
  Digest.string (Buffer.contents b)

let describe t action =
  match action with
  | Deliver { dst; msg } ->
    let m = msg_exn t msg in
    let pl =
      match m.payload with
      | Mc lsa -> Format.asprintf "%a" Dgmc.Mc_lsa.pp lsa
      | Link e -> Format.asprintf "%a" Lsr.Lsdb.pp_link_event e
      | Resync (Dgmc.Resync.Summary { session; _ }) ->
        Printf.sprintf "resync summary (session %d)" session
      | Resync (Dgmc.Resync.Delta { session; _ }) ->
        Printf.sprintf "resync delta (session %d)" session
    in
    Printf.sprintf "deliver to switch %d (flooded by %d): %s" dst m.origin pl
  | Complete i -> Printf.sprintf "complete topology computation at switch %d" i
