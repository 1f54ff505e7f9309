module Int_set = Set.Make (Int)

type membership_lsa = { src : int; group : int; change : [ `Join | `Leave ] }

type router = {
  members : (int, Int_set.t) Hashtbl.t;  (** group → member switches *)
  cache : (int * int, Mctree.Tree.t) Hashtbl.t;  (** (src, group) → SPT *)
}

type totals = {
  events : int;
  computations : int;
  floodings : int;
  messages : int;
  packets_forwarded : int;
}

(* What a run posts besides its floods: a scripted membership change,
   a datagram reaching [router] from [parent], and the end of
   [router]'s computation of the (src, group) tree the datagram
   missed. *)
type job = Change of membership_lsa | Hop of packet | Miss of packet
and packet = { src : int; group : int; router : int; parent : int option }

type t = {
  engine : Sim.Engine.t;
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  flooding : membership_lsa Lsr.Flooding.t;
  seqs : Lsr.Lsa.Seq.counter array;
  routers : router array;
  jobs : job Sim.Jobs.t;
  mutable events : int;
  mutable computations : int;
  mutable packets_forwarded : int;
}

let members_of router group =
  Option.value ~default:Int_set.empty (Hashtbl.find_opt router.members group)

let apply_membership router { src; group; change } =
  let current = members_of router group in
  let updated =
    match change with
    | `Join -> Int_set.add src current
    | `Leave -> Int_set.remove src current
  in
  Hashtbl.replace router.members group updated;
  (* A membership change invalidates every cached entry of the group:
     the next datagram recomputes (RFC 1584 behaviour). *)
  Hashtbl.filter_map_inplace
    (fun (_, g) tree -> if Int.equal g group then None else Some tree)
    router.cache

let forward t tree { src; group; router; parent } =
  if Mctree.Tree.mem_node tree router then
    List.iter
      (fun child ->
        if (match parent with Some p -> p <> child | None -> true) then begin
          t.packets_forwarded <- t.packets_forwarded + 1;
          Sim.Jobs.post t.jobs ~delay:t.config.Dgmc.Config.t_hop
            (Hop { src; group; router = child; parent = Some router })
        end)
      (Mctree.Tree.neighbors tree router)

let run_job t = function
  | Change lsa ->
    t.events <- t.events + 1;
    apply_membership t.routers.(lsa.src) lsa;
    let seq = Lsr.Lsa.Seq.next t.seqs.(lsa.src) in
    Lsr.Flooding.flood t.flooding (Lsr.Lsa.make ~origin:lsa.src ~seq lsa)
  | Hop p -> (
    match Hashtbl.find_opt t.routers.(p.router).cache (p.src, p.group) with
    | Some tree -> forward t tree p
    | None ->
      (* Cache miss: the datagram waits while the router computes the
         source-rooted tree — the paper's on-demand, data-driven model. *)
      Sim.Jobs.post t.jobs ~delay:t.config.Dgmc.Config.tc (Miss p))
  | Miss ({ src; group; router; _ } as p) ->
    t.computations <- t.computations + 1;
    (* The source-rooted tree as THIS router currently sees the group. *)
    let receivers = Int_set.elements (members_of t.routers.(router) group) in
    let tree =
      Mctree.Spt.source_rooted t.graph ~root:src
        ~receivers:(List.filter (fun x -> x <> src) receivers)
    in
    Hashtbl.replace t.routers.(router).cache (src, group) tree;
    forward t tree p

let create ~graph ~config () =
  let n = Net.Graph.n_nodes graph in
  if n < 2 then invalid_arg "Mospf.create: need at least 2 switches";
  let engine = Sim.Engine.create () in
  let routers =
    Array.init n (fun _ -> { members = Hashtbl.create 4; cache = Hashtbl.create 8 })
  in
  let deliver ~switch (lsa : membership_lsa Lsr.Lsa.t) =
    apply_membership routers.(switch) lsa.payload
  in
  let flooding =
    Lsr.Flooding.create ~engine ~graph ~t_hop:config.Dgmc.Config.t_hop
      ~mode:config.Dgmc.Config.flood_mode ~deliver ()
  in
  (* The jobs run against the whole record: a lazy value, forced
     before any can run. *)
  let rec t =
    lazy
      {
        engine;
        graph;
        config;
        flooding;
        seqs = Array.init n (fun _ -> Lsr.Lsa.Seq.create ());
        routers;
        jobs = Sim.Jobs.create engine (fun job -> run_job (Lazy.force t) job);
        events = 0;
        computations = 0;
        packets_forwarded = 0;
      }
  in
  Lazy.force t

let engine t = t.engine

let schedule_join t ~at ~switch ~group =
  Sim.Jobs.post_at t.jobs ~time:at
    (Change { src = switch; group; change = `Join })

let schedule_leave t ~at ~switch ~group =
  Sim.Jobs.post_at t.jobs ~time:at
    (Change { src = switch; group; change = `Leave })

let send_packet t ~src ~group =
  run_job t (Hop { src; group; router = src; parent = None })

let run t = Sim.Engine.run t.engine

let totals t =
  {
    events = t.events;
    computations = t.computations;
    floodings = Lsr.Flooding.floods_started t.flooding;
    messages = Lsr.Flooding.messages_sent t.flooding;
    packets_forwarded = t.packets_forwarded;
  }

let members t ~switch ~group =
  Int_set.elements (members_of t.routers.(switch) group)
