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

type t = {
  engine : Sim.Engine.t;
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  flooding : membership_lsa Lsr.Flooding.t;
  seqs : Lsr.Lsa.Seq.counter array;
  routers : router array;
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
  {
    engine;
    graph;
    config;
    flooding;
    seqs = Array.init n (fun _ -> Lsr.Lsa.Seq.create ());
    routers;
    events = 0;
    computations = 0;
    packets_forwarded = 0;
  }

let engine t = t.engine

let membership_event t ~switch ~group change =
  t.events <- t.events + 1;
  apply_membership t.routers.(switch) { src = switch; group; change };
  let seq = Lsr.Lsa.Seq.next t.seqs.(switch) in
  Lsr.Flooding.flood t.flooding
    (Lsr.Lsa.make ~origin:switch ~seq { src = switch; group; change })

let join t ~switch ~group = membership_event t ~switch ~group `Join

let leave t ~switch ~group = membership_event t ~switch ~group `Leave

let schedule_join t ~at ~switch ~group =
  Sim.Engine.schedule_at t.engine ~time:at (fun () -> join t ~switch ~group)

let schedule_leave t ~at ~switch ~group =
  Sim.Engine.schedule_at t.engine ~time:at (fun () -> leave t ~switch ~group)

(* Source-rooted tree as THIS router currently sees the group. *)
let local_tree t router ~src ~group =
  let receivers = Int_set.elements (members_of t.routers.(router) group) in
  Mctree.Spt.source_rooted t.graph ~root:src
    ~receivers:(List.filter (fun x -> x <> src) receivers)

let rec packet_at t ~src ~group ~router ~parent =
  let r = t.routers.(router) in
  match Hashtbl.find_opt r.cache (src, group) with
  | Some tree -> forward t tree ~src ~group ~router ~parent
  | None ->
    (* Cache miss: the datagram waits while the router computes the
       source-rooted tree — the paper's on-demand, data-driven model. *)
    Sim.Engine.schedule t.engine ~delay:t.config.Dgmc.Config.tc (fun () ->
        t.computations <- t.computations + 1;
        let tree = local_tree t router ~src ~group in
        Hashtbl.replace r.cache (src, group) tree;
        forward t tree ~src ~group ~router ~parent)

and forward t tree ~src ~group ~router ~parent =
  if Mctree.Tree.mem_node tree router then
    List.iter
      (fun child ->
        if (match parent with Some p -> p <> child | None -> true) then begin
          t.packets_forwarded <- t.packets_forwarded + 1;
          Sim.Engine.schedule t.engine ~delay:t.config.Dgmc.Config.t_hop
            (fun () ->
              packet_at t ~src ~group ~router:child ~parent:(Some router))
        end)
      (Mctree.Tree.neighbors tree router)

let send_packet t ~src ~group = packet_at t ~src ~group ~router:src ~parent:None

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
