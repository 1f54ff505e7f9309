type delivery = { receiver : int; delay : float; hops : int }

type report = {
  deliveries : delivery list;
  links_used : (int * int) list;
  contact : int option;
}

let norm u v = if u < v then (u, v) else (v, u)

let compare_delivery a b =
  match Int.compare a.receiver b.receiver with
  | 0 -> (
    match Float.compare a.delay b.delay with
    | 0 -> Int.compare a.hops b.hops
    | c -> c)
  | c -> c

(* Walk tree edges outward from [start], excluding [start] itself from the
   deliveries (the caller decides whether the start node is a recipient).
   Each node is visited once, so an edge set with a cycle ends too; on a
   tree the only visited neighbour is the parent. *)
let walk g tree ~start ~base_delay ~base_hops ~prefix_links =
  let deliveries = ref [] in
  let links = ref prefix_links in
  let seen = Array.make (Net.Graph.n_nodes g) false in
  let rec visit u delay hops =
    seen.(u) <- true;
    if Tree.is_terminal tree u && u <> start then
      deliveries := { receiver = u; delay; hops } :: !deliveries;
    List.iter
      (fun v ->
        if not seen.(v) then begin
          links := norm u v :: !links;
          visit v (delay +. Net.Graph.weight g u v) (hops + 1)
        end)
      (Tree.neighbors tree u)
  in
  visit start base_delay base_hops;
  (!deliveries, !links)

let multicast g tree ~src =
  if not (Tree.mem_node tree src) then failwith "Delivery.multicast: sender not on tree";
  let deliveries, links = walk g tree ~start:src ~base_delay:0.0 ~base_hops:0 ~prefix_links:[] in
  {
    deliveries = List.sort compare_delivery deliveries;
    links_used = List.sort_uniq Tree.compare_edge links;
    contact = None;
  }

let two_stage g tree ~src =
  if Tree.mem_node tree src then
    { (multicast g tree ~src) with contact = Some src }
  else begin
    let r = Net.Dijkstra.run g src in
    match Tree.nearest r tree ~except:src with
    | -1 -> failwith "Delivery.two_stage: tree unreachable from sender"
    | contact ->
      let path = Option.get (Net.Dijkstra.path_of_result r ~src ~dst:contact) in
      let d = r.dist.(contact) in
      let unicast_links = List.map (fun (u, v) -> norm u v) (Net.Path.edges path) in
      let unicast_hops = Net.Path.hops path in
      let deliveries, links =
        walk g tree ~start:contact ~base_delay:d ~base_hops:unicast_hops
          ~prefix_links:unicast_links
      in
      (* The contact itself may be a terminal that must also receive. *)
      let deliveries =
        if Tree.is_terminal tree contact then
          { receiver = contact; delay = d; hops = unicast_hops } :: deliveries
        else deliveries
      in
      {
        deliveries = List.sort compare_delivery deliveries;
        links_used = List.sort_uniq Tree.compare_edge links;
        contact = Some contact;
      }
  end

let accumulate_loads table report =
  List.iter
    (fun link ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt table link) in
      Hashtbl.replace table link (prev + 1))
    report.links_used

(* dgmc-analyze: allow iteration-order — max over ints is order-insensitive *)
let max_load table = Hashtbl.fold (fun _ load acc -> max load acc) table 0
