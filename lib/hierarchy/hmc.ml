module Int_set = Set.Make (Int)

type totals = {
  events : int;
  intra_floodings : int;
  logical_floodings : int;
  intra_messages : int;
  logical_messages : int;
  computations : int;
  gateway_instructions : int;
}

(* What a run posts besides the two levels' own traffic: a scripted
   join or leave at a switch, a notice to area [a]'s leader that an MC's
   membership changed there, and a leader's instruction to gateway [g]
   to join an MC ([true]) or leave it. *)
type job =
  | Join of int * Dgmc.Mc_id.t * Dgmc.Member.role
  | Leave of int * Dgmc.Mc_id.t
  | Notice of int * Dgmc.Mc_id.t
  | Instruct of int * Dgmc.Mc_id.t * bool

type t = {
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  partition : int list array;
  area_of : int array;
  (* Intra level: one D-GMC network over every intra-area link, so each
     area is one component of its graph and floods stay inside it. *)
  intra : Dgmc.Protocol.t;
  (* Logical level: a second D-GMC network, one node per area, on the
     intra level's engine. *)
  logical : Dgmc.Protocol.t;
  edge_map : (int * int, int * int) Hashtbl.t;
      (** logical (a, b) with a < b → cheapest real link (u, v), u ∈ a. *)
  (* Leader bookkeeping. *)
  registry : unit Dgmc.Mc_id.Tbl.t;  (** every MC id ever seen *)
  host_members : Int_set.t Dgmc.Mc_id.Tbl.t array;
      (** per area: real members *)
  logical_joined : bool Dgmc.Mc_id.Tbl.t array;
  gateways : Int_set.t Dgmc.Mc_id.Tbl.t array;
      (** per area: instructed gateways *)
  check_pending : bool array;
  jobs : job Sim.Jobs.t;
  check : Sim.Engine.callback;  (** {!leader_check}, posted with the area. *)
  mutable events : int;
  mutable gateway_instructions : int;
}

let engine t = Dgmc.Protocol.engine t.intra

let logical_graph t = Dgmc.Protocol.graph t.logical

(* ------------------------------------------------------------------ *)
(* Areas and the logical graph *)

let validate_partition graph partition =
  let n = Net.Graph.n_nodes graph in
  let seen = Array.make n false in
  Array.iteri
    (fun a members ->
      if members = [] then
        invalid_arg (Printf.sprintf "Hmc: area %d is empty" a);
      List.iter
        (fun s ->
          if s < 0 || s >= n then invalid_arg "Hmc: switch out of range";
          if seen.(s) then
            invalid_arg (Printf.sprintf "Hmc: switch %d in two areas" s);
          seen.(s) <- true)
        members)
    partition;
  if not (Array.for_all (fun b -> b) seen) then
    invalid_arg "Hmc: partition does not cover the graph"

let build_intra_graph graph area_of =
  let g = Net.Graph.create (Net.Graph.n_nodes graph) in
  List.iter
    (fun (e : Net.Graph.edge) ->
      if area_of.(e.u) = area_of.(e.v) then
        Net.Graph.add_edge g e.u e.v ~weight:e.weight)
    (Net.Graph.edges graph);
  g

let build_logical graph area_of k =
  let edge_map = Hashtbl.create 16 in
  List.iter
    (fun (e : Net.Graph.edge) ->
      let a = area_of.(e.u) and b = area_of.(e.v) in
      if a <> b then begin
        let key = (min a b, max a b) in
        let better =
          match Hashtbl.find_opt edge_map key with
          | None -> true
          | Some (u', v') -> e.weight < Net.Graph.weight graph u' v'
        in
        if better then
          (* Store with the first endpoint in the lower-numbered area. *)
          Hashtbl.replace edge_map key (if a < b then (e.u, e.v) else (e.v, e.u))
      end)
    (Net.Graph.edges graph);
  let logical = Net.Graph.create k in
  (* dgmc-analyze: allow iteration-order — each logical edge is a distinct
     key inserted exactly once, so the resulting graph value does not
     depend on enumeration order *)
  Hashtbl.iter
    (fun (a, b) (u, v) ->
      Net.Graph.add_edge logical a b ~weight:(Net.Graph.weight graph u v))
    edge_map;
  (logical, edge_map)

let members_of table mc =
  Option.value ~default:Int_set.empty (Dgmc.Mc_id.Tbl.find_opt table mc)

(* ------------------------------------------------------------------ *)
(* Leader behaviour *)

(* Derive the gateway switches area [a] owes to the given logical tree:
   for every logical tree edge incident to [a], the local endpoint of
   the mapped real link. *)
let derive_gateways t a ltree =
  List.fold_left
    (fun acc (x, y) ->
      if x = a || y = a then begin
        match Hashtbl.find_opt t.edge_map (min x y, max x y) with
        | Some (u, v) ->
          let local = if t.area_of.(u) = a then u else v in
          Int_set.add local acc
        | None -> acc
      end
      else acc)
    Int_set.empty (Mctree.Tree.edges ltree)

let leader_check t a =
  t.check_pending.(a) <- false;
  Dgmc.Mc_id.Tbl.iter
    (fun mc () ->
      let wanted =
        match Dgmc.Switch.topology (Dgmc.Protocol.switch t.logical a) mc with
        | Some ltree -> derive_gateways t a ltree
        | None -> Int_set.empty
      in
      let current = members_of t.gateways.(a) mc in
      if not (Int_set.equal wanted current) then begin
        Dgmc.Mc_id.Tbl.replace t.gateways.(a) mc wanted;
        (* Leader → gateway control messages, one hop of delay each. *)
        let instruct join g =
          t.gateway_instructions <- t.gateway_instructions + 1;
          Sim.Jobs.post t.jobs ~delay:t.config.Dgmc.Config.t_hop
            (Instruct (g, mc, join))
        in
        Int_set.iter (instruct true) (Int_set.diff wanted current);
        Int_set.iter (instruct false) (Int_set.diff current wanted)
      end)
    t.registry

(* Any logical state change at area [a]'s node wakes its leader to
   re-derive the gateways. *)
let schedule_leader_check t a =
  if not t.check_pending.(a) then begin
    t.check_pending.(a) <- true;
    Sim.Engine.post (engine t) ~delay:t.config.Dgmc.Config.t_hop t.check a
  end

(* ------------------------------------------------------------------ *)
(* Host events *)

let logical_membership_update t a mc =
  let real = members_of t.host_members.(a) mc in
  let joined =
    Option.value ~default:false
      (Dgmc.Mc_id.Tbl.find_opt t.logical_joined.(a) mc)
  in
  if (not (Int_set.is_empty real)) && not joined then begin
    Dgmc.Mc_id.Tbl.replace t.logical_joined.(a) mc true;
    Dgmc.Protocol.join t.logical ~switch:a mc Dgmc.Member.Both
  end
  else if Int_set.is_empty real && joined then begin
    Dgmc.Mc_id.Tbl.replace t.logical_joined.(a) mc false;
    Dgmc.Protocol.leave t.logical ~switch:a mc
  end

let join t ~switch mc role =
  if switch < 0 || switch >= Array.length t.area_of then
    invalid_arg "Hmc.join: switch out of range";
  t.events <- t.events + 1;
  Dgmc.Mc_id.Tbl.replace t.registry mc ();
  let a = t.area_of.(switch) in
  let real = members_of t.host_members.(a) mc in
  Dgmc.Mc_id.Tbl.replace t.host_members.(a) mc (Int_set.add switch real);
  Dgmc.Switch.host_join (Dgmc.Protocol.switch t.intra switch) mc role;
  (* The ingress switch notifies its leader (one hop). *)
  Sim.Jobs.post t.jobs ~delay:t.config.Dgmc.Config.t_hop (Notice (a, mc))

let leave t ~switch mc =
  if switch < 0 || switch >= Array.length t.area_of then
    invalid_arg "Hmc.leave: switch out of range";
  t.events <- t.events + 1;
  let a = t.area_of.(switch) in
  let real = members_of t.host_members.(a) mc in
  Dgmc.Mc_id.Tbl.replace t.host_members.(a) mc (Int_set.remove switch real);
  (* The switch stays in the MC if it still serves as a gateway. *)
  let gw = members_of t.gateways.(a) mc in
  if not (Int_set.mem switch gw) then
    Dgmc.Switch.host_leave (Dgmc.Protocol.switch t.intra switch) mc;
  Sim.Jobs.post t.jobs ~delay:t.config.Dgmc.Config.t_hop (Notice (a, mc))

let run_job t = function
  | Join (switch, mc, role) -> join t ~switch mc role
  | Leave (switch, mc) -> leave t ~switch mc
  | Notice (a, mc) -> logical_membership_update t a mc
  | Instruct (g, mc, true) ->
    Dgmc.Switch.host_join (Dgmc.Protocol.switch t.intra g) mc Dgmc.Member.Both
  | Instruct (g, mc, false) ->
    (* Only withdraw the gateway role if no host at [g] is a real
       member. *)
    if not (Int_set.mem g (members_of t.host_members.(t.area_of.(g)) mc)) then
      Dgmc.Switch.host_leave (Dgmc.Protocol.switch t.intra g) mc

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~graph ~partition ~config =
  validate_partition graph partition;
  if Option.is_some config.Dgmc.Config.health then
    invalid_arg "Hmc.create: the link-health layer is not supported";
  let n = Net.Graph.n_nodes graph in
  let k = Array.length partition in
  if k < 2 then invalid_arg "Hmc: need at least 2 areas";
  let area_of = Array.make n (-1) in
  Array.iteri
    (fun a members -> List.iter (fun s -> area_of.(s) <- a) members)
    partition;
  let intra_graph = build_intra_graph graph area_of in
  (* Each area must be connected inside the intra graph. *)
  Array.iteri
    (fun a members ->
      let reach = Net.Bfs.reachable intra_graph (List.hd members) in
      List.iter
        (fun s ->
          if not reach.(s) then
            invalid_arg (Printf.sprintf "Hmc: area %d is not connected" a))
        members)
    partition;
  let logical_graph, edge_map = build_logical graph area_of k in
  let intra = Dgmc.Protocol.create ~graph:intra_graph ~config () in
  let logical =
    (* A logical LSA crosses several real hops. *)
    Dgmc.Protocol.create ~graph:logical_graph
      ~config:{ config with t_hop = 3.0 *. config.Dgmc.Config.t_hop }
      ~engine:(Dgmc.Protocol.engine intra) ()
  in
  (* The jobs and leader checks run against the whole record: a lazy
     value, forced before any can run. *)
  let rec t =
    lazy
      {
        graph;
        config;
        partition;
        area_of;
        intra;
        logical;
        edge_map;
        registry = Dgmc.Mc_id.Tbl.create 4;
        host_members = Array.init k (fun _ -> Dgmc.Mc_id.Tbl.create 4);
        logical_joined = Array.init k (fun _ -> Dgmc.Mc_id.Tbl.create 4);
        gateways = Array.init k (fun _ -> Dgmc.Mc_id.Tbl.create 4);
        check_pending = Array.make k false;
        jobs =
          Sim.Jobs.create (Dgmc.Protocol.engine intra) (fun job ->
              run_job (Lazy.force t) job);
        check = Sim.Engine.callback (fun a -> leader_check (Lazy.force t) a);
        events = 0;
        gateway_instructions = 0;
      }
  in
  let t = Lazy.force t in
  Dgmc.Protocol.add_observer logical (schedule_leader_check t);
  t

let schedule_join t ~at ~switch mc role =
  Sim.Jobs.post_at t.jobs ~time:at (Join (switch, mc, role))

let schedule_leave t ~at ~switch mc =
  Sim.Jobs.post_at t.jobs ~time:at (Leave (switch, mc))

let run t = Dgmc.Protocol.run t.intra

(* ------------------------------------------------------------------ *)
(* Measurements *)

let totals t =
  let intra = Dgmc.Protocol.totals t.intra
  and logical = Dgmc.Protocol.totals t.logical in
  {
    events = t.events;
    intra_floodings = intra.mc_floodings;
    logical_floodings = logical.mc_floodings;
    intra_messages = intra.messages;
    logical_messages = logical.messages;
    computations = intra.computations + logical.computations;
    gateway_instructions = t.gateway_instructions;
  }

(* ------------------------------------------------------------------ *)
(* Agreement *)

let area_switches t members =
  Array.of_list (List.map (Dgmc.Protocol.switch t.intra) members)

let logical_switches t =
  Array.init (Dgmc.Protocol.n_switches t.logical) (Dgmc.Protocol.switch t.logical)

let first_topology mc switches =
  Array.find_map (fun sw -> Dgmc.Switch.topology sw mc) switches

(* The global tree: every area's tree plus the real link under each edge
   of the logical tree (each the first holder's, so the agreed one once
   converged), with the real members as terminals; and the logical edges
   that map to no real link.  [divergence] validates what [global_tree]
   returns. *)
let stitch t mc =
  let links = ref [] in
  let add link = links := link :: !links in
  Array.iter
    (fun members ->
      Option.iter
        (fun tree -> List.iter add (Mctree.Tree.edges tree))
        (first_topology mc (area_switches t members)))
    t.partition;
  let unmapped =
    match first_topology mc (logical_switches t) with
    | None -> []
    | Some ltree ->
      List.filter
        (fun (x, y) ->
          match Hashtbl.find_opt t.edge_map (min x y, max x y) with
          | Some link ->
            add link;
            false
          | None -> true)
        (Mctree.Tree.edges ltree)
  in
  let members =
    Array.to_list t.host_members
    |> List.concat_map (fun table -> Int_set.elements (members_of table mc))
    |> List.sort Int.compare
  in
  (Mctree.Tree.of_edges ~terminals:members !links, unmapped)

let divergence t mc =
  let problems = ref [] in
  let report fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let report_violations =
    List.iter (fun v -> problems := Dgmc.Terminal.to_string v :: !problems)
  in
  let member_areas =
    List.filter
      (fun a -> not (Int_set.is_empty (members_of t.host_members.(a) mc)))
      (List.init (Array.length t.partition) (fun a -> a))
  in
  (* Logical level: converged as a network of its own, and its members
     are the areas holding real members. *)
  problems := List.rev_append (Dgmc.Protocol.divergence t.logical mc) !problems;
  let logical = logical_switches t in
  let logical_tree = first_topology mc logical in
  let logical_members =
    Array.find_map (fun sw -> Dgmc.Switch.members sw mc) logical
  in
  if Option.fold ~none:[] ~some:Dgmc.Member.ids logical_members <> member_areas
  then report "logical membership does not match the areas holding members";
  (* Per area: agreement, and its members are its hosts plus gateways. *)
  Array.iteri
    (fun a members ->
      let switches = area_switches t members in
      report_violations (Dgmc.Terminal.agreement mc switches);
      match Array.find_map (fun sw -> Dgmc.Switch.members sw mc) switches with
      | None -> ()
      | Some m0 ->
        let expected =
          Int_set.elements
            (Int_set.union
               (members_of t.host_members.(a) mc)
               (members_of t.gateways.(a) mc))
        in
        if Dgmc.Member.ids m0 <> expected then
          report "area %d: member list does not match hosts + gateways" a)
    t.partition;
  (* Gateways must match the agreed logical tree. *)
  Array.iteri
    (fun a _ ->
      let current = members_of t.gateways.(a) mc in
      match logical_tree with
      | Some ltree ->
        if not (Int_set.equal (derive_gateways t a ltree) current) then
          report "area %d: gateway set does not match the logical tree" a
      | None ->
        if not (Int_set.is_empty current) then
          report "area %d: stale gateways with no logical MC" a)
    t.partition;
  (* The stitched global tree. *)
  (if member_areas <> [] && Option.is_some logical_tree then
     let global, unmapped = stitch t mc in
     List.iter
       (fun (x, y) -> report "logical edge (%d, %d) has no mapped link" x y)
       unmapped;
     if not (Mctree.Tree.is_tree global) then
       report "stitched global graph has a cycle";
     if not (Mctree.Tree.spans_terminals global) then
       report "stitched global tree does not span all members";
     if not (Mctree.Tree.is_embedded t.graph global) then
       report "stitched global tree uses dead links");
  List.rev !problems

let converged t mc = divergence t mc = []

let global_tree t mc =
  if not (converged t mc) then None
  else
    let global, _ = stitch t mc in
    if Mctree.Tree.n_terminals global = 0 then None
    else Some global
