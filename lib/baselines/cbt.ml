module Int_set = Set.Make (Int)

type t = {
  graph : Net.Graph.t;
  core : int;
  mutable tree : Mctree.Tree.t;
  mutable members : Int_set.t;
  mutable messages : int;
}

let create ~graph ~core () =
  if core < 0 || core >= Net.Graph.n_nodes graph then
    invalid_arg "Cbt.create: core out of range";
  {
    graph;
    core;
    tree = Mctree.Tree.of_terminals [ core ];
    members = Int_set.empty;
    messages = 0;
  }

let tree t = t.tree

let control_messages t = t.messages

(* The unicast route from [x] toward the core, cut at the first on-tree
   switch: this is the path a CBT join request travels and grafts. *)
let graft_path t x =
  match Net.Dijkstra.path t.graph ~src:x ~dst:t.core with
  | None -> failwith "Cbt: core unreachable"
  | Some path ->
    let rec take acc = function
      | [] -> List.rev acc
      | node :: rest ->
        if Mctree.Tree.mem_node t.tree node then List.rev (node :: acc)
        else take (node :: acc) rest
    in
    take [] path

let join_impl t x =
  if not (Int_set.mem x t.members) then begin
    t.members <- Int_set.add x t.members;
    if Mctree.Tree.mem_node t.tree x then
      t.tree <- Mctree.Tree.add_terminal t.tree x
    else begin
      let path = graft_path t x in
      (* One join request per hop toward the tree, one ack per hop back. *)
      t.messages <- t.messages + (2 * Net.Path.hops path);
      t.tree <- Mctree.Tree.add_terminal (Mctree.Tree.add_path t.tree path) x
    end
  end

(* Closure-free phase wrappers; see Net.Dijkstra.run. *)
let join t x =
  let ph = Metrics.Phase.ambient () in
  Metrics.Phase.enter ph "cbt.compute";
  match join_impl t x with
  | () -> Metrics.Phase.leave ph
  | exception e ->
    Metrics.Phase.leave ph;
    raise e

(* The core anchors the tree as a terminal but is not a member; only
   member switches count as packet recipients. *)
let members_only t (report : Mctree.Delivery.report) =
  {
    report with
    deliveries =
      List.filter
        (fun (d : Mctree.Delivery.delivery) -> Int_set.mem d.receiver t.members)
        report.deliveries;
  }

let deliver t ~src =
  if Mctree.Tree.mem_node t.tree src then
    members_only t
      { (Mctree.Delivery.multicast t.graph t.tree ~src) with contact = Some src }
  else begin
    (* Data from an off-tree sender travels toward the core until it
       hits the tree — the core-ward contact restriction of CBT. *)
    let path = graft_path t src in
    let contact = List.nth path (List.length path - 1) in
    let base_delay = Net.Path.cost t.graph path in
    let base_hops = Net.Path.hops path in
    let inner = Mctree.Delivery.multicast t.graph t.tree ~src:contact in
    let deliveries =
      List.map
        (fun (d : Mctree.Delivery.delivery) ->
          { d with delay = d.delay +. base_delay; hops = d.hops + base_hops })
        inner.deliveries
    in
    let deliveries =
      if Int_set.mem contact t.members then
        { Mctree.Delivery.receiver = contact; delay = base_delay; hops = base_hops }
        :: deliveries
      else deliveries
    in
    let unicast_links =
      List.map (fun (u, v) -> if u < v then (u, v) else (v, u)) (Net.Path.edges path)
    in
    members_only t
      {
        Mctree.Delivery.deliveries =
          List.sort Mctree.Delivery.compare_delivery deliveries;
        links_used =
          List.sort_uniq Mctree.Tree.compare_edge
            (unicast_links @ inner.links_used);
        contact = Some contact;
      }
  end
