type membership_lsa = { src : int; group : int; change : [ `Join | `Leave ] }

(* A router's view of one group: its members, one byte per switch
   ('\001' for a member) set and cleared in place, and the source trees
   it has cached for the group, by source.  [trees] is [[||]] until the
   router's first computation for the group, and again once a
   membership change flushes them. *)
type group_state = {
  members : Bytes.t;
  mutable trees : Mctree.Tree.t option array;
}

type totals = {
  events : int;
  computations : int;
  floodings : int;
  messages : int;
  packets_forwarded : int;
}

(* A datagram of [group] from [src] reaching [router] from [parent]
   ([-1] at the source). *)
type packet = { src : int; group : int; router : int; parent : int }

(* Source trees already computed on graph version [version].  A
   source-rooted tree is a function of the graph, the source and the
   receivers alone, so a tree is keyed by the computing router's member
   row with the source's byte set to '\002' (receivers minus the
   source, and the source).  [key] is the scratch row a lookup is built
   in.  Entries live until the graph version moves. *)
type memo = {
  mutable version : int;
  trees : (Bytes.t, Mctree.Tree.t) Hashtbl.t;
  key : Bytes.t;
}

type t = {
  engine : Sim.Engine.t;
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  flooding : membership_lsa Lsr.Flooding.t;
  seqs : Lsr.Lsa.Seq.counter array;
  routers : (int, group_state) Hashtbl.t array;  (** Per router, by group. *)
  inputs : membership_lsa Sim.Jobs.t;  (** Scripted changes. *)
  hops : packet Sim.Jobs.t;  (** Datagrams reaching a router. *)
  misses : packet Sim.Jobs.t;
      (** Datagrams whose router's computation of their tree completes. *)
  memo : memo;
  mutable events : int;
  mutable computations : int;
  mutable packets_forwarded : int;
}

let group_state t router group =
  let groups = t.routers.(router) in
  match Hashtbl.find groups group with
  | g -> g
  | exception Not_found ->
    let g = { members = Bytes.make (Bytes.length t.memo.key) '\000'; trees = [||] } in
    Hashtbl.replace groups group g;
    g

(* The members in row [members], ascending, [except] left out. *)
let member_list members ~except =
  let acc = ref [] in
  for i = Bytes.length members - 1 downto 0 do
    if i <> except && Bytes.get members i = '\001' then acc := i :: !acc
  done;
  !acc

let learn t router { src; group; change } =
  let g = group_state t router group in
  Bytes.set g.members src (match change with `Join -> '\001' | `Leave -> '\000');
  (* A membership change invalidates every cached tree of the group:
     the next datagram recomputes (RFC 1584 behaviour). *)
  g.trees <- [||]

(* The tree rooted at [src] over the receivers of row [members]. *)
let source_tree t src members =
  let memo = t.memo in
  let version = Net.Graph.version t.graph in
  if version <> memo.version then begin
    Hashtbl.reset memo.trees;
    memo.version <- version
  end;
  Bytes.blit members 0 memo.key 0 (Bytes.length members);
  Bytes.set memo.key src '\002';
  match Hashtbl.find memo.trees memo.key with
  | tree -> tree
  | exception Not_found ->
    let tree =
      Mctree.Spt.source_rooted t.graph ~root:src
        ~receivers:(member_list members ~except:src)
    in
    Hashtbl.replace memo.trees (Bytes.copy memo.key) tree;
    tree

let rec send_on t p = function
  | [] -> ()
  | child :: rest ->
    if child <> p.parent then begin
      t.packets_forwarded <- t.packets_forwarded + 1;
      Sim.Jobs.post t.hops ~delay:t.config.Dgmc.Config.t_hop
        { p with router = child; parent = p.router }
    end;
    send_on t p rest

let forward t tree p =
  if Mctree.Tree.mem_node tree p.router then
    send_on t p (Mctree.Tree.neighbors tree p.router)

let hop t p =
  let g = group_state t p.router p.group in
  match if Array.length g.trees = 0 then None else g.trees.(p.src) with
  | Some tree -> forward t tree p
  | None ->
    (* Cache miss: the datagram waits while the router computes the
       source-rooted tree — the paper's on-demand, data-driven model. *)
    Sim.Jobs.post t.misses ~delay:t.config.Dgmc.Config.tc p

(* Every router that misses computes the source-rooted tree as it
   currently sees the group, and [tc] and [computations] charge it in
   full.  The simulator itself computes each (graph version, source,
   receivers) tree once and hands every router that shared tree. *)
let computed t p =
  t.computations <- t.computations + 1;
  let g = group_state t p.router p.group in
  let tree = source_tree t p.src g.members in
  if Array.length g.trees = 0 then g.trees <- Array.make (Bytes.length g.members) None;
  g.trees.(p.src) <- Some tree;
  forward t tree p

(* A scripted membership change at switch [src]: learnt there, then
   flooded as the LSA it is. *)
let local_event t (lsa : membership_lsa) =
  t.events <- t.events + 1;
  learn t lsa.src lsa;
  let seq = Lsr.Lsa.Seq.next t.seqs.(lsa.src) in
  Lsr.Flooding.flood t.flooding (Lsr.Lsa.make ~origin:lsa.src ~seq lsa)

let create ~graph ~config () =
  let n = Net.Graph.n_nodes graph in
  if n < 2 then invalid_arg "Mospf.create: need at least 2 switches";
  let engine = Sim.Engine.create () in
  (* Deliveries and jobs run against the whole record: a lazy value,
     forced before any can run. *)
  let rec t =
    lazy
      {
        engine;
        graph;
        config;
        flooding =
          Lsr.Flooding.create ~engine ~graph ~t_hop:config.Dgmc.Config.t_hop
            ~mode:config.Dgmc.Config.flood_mode
            ~deliver:(fun ~switch lsa -> learn (Lazy.force t) switch lsa.payload)
            ();
        seqs = Array.init n (fun _ -> Lsr.Lsa.Seq.create ());
        routers = Array.init n (fun _ -> Hashtbl.create 4);
        inputs = Sim.Jobs.create engine (fun lsa -> local_event (Lazy.force t) lsa);
        hops = Sim.Jobs.create engine (fun p -> hop (Lazy.force t) p);
        misses = Sim.Jobs.create engine (fun p -> computed (Lazy.force t) p);
        memo = { version = -1; trees = Hashtbl.create 16; key = Bytes.make n '\000' };
        events = 0;
        computations = 0;
        packets_forwarded = 0;
      }
  in
  Lazy.force t

let engine t = t.engine

let schedule_join t ~at ~switch ~group =
  Sim.Jobs.post_at t.inputs ~time:at { src = switch; group; change = `Join }

let schedule_leave t ~at ~switch ~group =
  Sim.Jobs.post_at t.inputs ~time:at { src = switch; group; change = `Leave }

let send_packet t ~src ~group = hop t { src; group; router = src; parent = -1 }

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
  match Hashtbl.find_opt t.routers.(switch) group with
  | Some g -> member_list g.members ~except:(-1)
  | None -> []
