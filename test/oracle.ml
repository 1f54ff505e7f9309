(* Test-side helpers shared by several suites: references and shorthands
   that no program needs, built on the libraries' public entry points.
   Each submodule is named after the library module it serves. *)

(* [f] on the path of a fresh temporary file, removed afterwards. *)
let with_temp_file f =
  let path = Filename.temp_file "dgmc_test" "" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* What [f] writes to stdout. *)
let stdout_of f =
  with_temp_file (fun path ->
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let saved = Unix.dup Unix.stdout in
      flush stdout;
      Unix.dup2 fd Unix.stdout;
      Fun.protect
        ~finally:(fun () ->
          flush stdout;
          Unix.dup2 saved Unix.stdout;
          Unix.close saved;
          Unix.close fd)
        f;
      read_file path)

module Explore = struct
  (* A fresh replay of [prefix]: create the harness, inject and settle
     the setup, inject the race, then apply the prefix.  The walk reaches
     each state on a copy of a settled base instead; this is what every
     such copy must digest as. *)
  let build (scenario : Check.Explore.scenario) prefix =
    let h =
      Check.Harness.create ~graph:scenario.graph ~config:scenario.config ()
    in
    List.iter (Check.Harness.inject h) scenario.setup;
    Check.Harness.settle h;
    List.iter (Check.Harness.inject h) scenario.race;
    List.iter (Check.Harness.apply h) prefix;
    h

  (* The exhaustive check: the walk breadth-first (admission order),
     every law a hit, bounded at 200_000 states and depth 10_000.  No
     partial-order reduction: only the harness's interchangeability
     dedup and the canonical-digest dedup of states merge successors. *)
  let run scenario =
    Check.Explore.walk ~hit:(fun _ -> true)
      ~order:(fun ~depth:_ ~digest:_ _ -> ([], ""))
      ~max_states:200_000 ~max_depth:10_000 scenario
end

module Monitor = struct
  (* Fail with the monitor's violations unless it recorded none. *)
  let assert_ok m =
    if not (Check.Monitor.ok m) then
      Alcotest.failf "invariant monitor: %d violation(s) after %d sweeps:\n%s"
        (List.length (Check.Monitor.violations m))
        (Check.Monitor.sweeps m)
        (String.concat "\n" (Check.Monitor.violations m))
end

module Protocol = struct
  let now net = Sim.Engine.now (Dgmc.Protocol.engine net)

  (* Link events at the engine's current time, through the [schedule_*]
     entry points the programs use; each takes effect at the next
     [run]. *)
  let link_down net u v = Dgmc.Protocol.schedule_link_down net ~at:(now net) u v

  let link_up net u v = Dgmc.Protocol.schedule_link_up net ~at:(now net) u v

  (* Only the {!Dgmc.Terminal} agreement group over the given switches,
     without the ground-truth group: what a partition side must still
     reach when global agreement cannot hold. *)
  let converged_among net mc ids =
    match
      Dgmc.Terminal.agreement mc
        (Array.of_list (List.map (Dgmc.Protocol.switch net) ids))
    with
    | [] -> true
    | _ :: _ -> false
end

module Timestamp = struct
  include Dgmc.Timestamp

  (* The pure updates: the in-place ones on a frozen argument, which
     always write a fresh copy. *)
  let bump t x = freeze (bump_owned (freeze t) x)

  let raise_to t x v = freeze (raise_owned (freeze t) x v)

  let sum t =
    let s = ref 0 in
    iter_nonzero (fun _ c -> s := !s + c) t;
    !s

  (* The stamp with this dense view. *)
  let of_array a =
    Array.iter
      (fun x -> if x < 0 then invalid_arg "Timestamp.of_array: negative")
      a;
    if Array.length a = 0 then invalid_arg "Timestamp.of_array: empty";
    let t = ref (zero (Array.length a)) in
    Array.iteri (fun x v -> t := raise_owned !t x v) a;
    freeze !t
end

module Plan = struct
  (* A fault spec from its command-line text, as [--faults] reads it. *)
  let spec text = Result.get_ok (Faults.Plan.spec_of_string text)
end

module Brute_force = struct
  (* Membership events at the engine's current time, through the
     [schedule_*] entry points the figures use; each takes effect at the
     next [run]. *)
  let now bf = Sim.Engine.now (Baselines.Brute_force.engine bf)

  let join bf ~switch mc role =
    Baselines.Brute_force.schedule_join bf ~at:(now bf) ~switch mc role

  let leave bf ~switch mc =
    Baselines.Brute_force.schedule_leave bf ~at:(now bf) ~switch mc
end

module Mospf = struct
  (* A join at the engine's current time, as {!Brute_force.join}. *)
  let join m ~switch ~group =
    Baselines.Mospf.schedule_join m
      ~at:(Sim.Engine.now (Baselines.Mospf.engine m))
      ~switch ~group
end

module Hmc = struct
  (* Host events at the engine's current time, through the [schedule_*]
     entry points the programs use; each takes effect at the next
     [run]. *)
  let now h = Sim.Engine.now (Hierarchy.Hmc.engine h)

  let join h ~switch mc role =
    Hierarchy.Hmc.schedule_join h ~at:(now h) ~switch mc role

  let leave h ~switch mc = Hierarchy.Hmc.schedule_leave h ~at:(now h) ~switch mc
end

module Registry = struct
  (* Reads through [snapshot], the registry's one reader. *)
  let is_empty r =
    match Metrics.Registry.snapshot r with
    | { counters = []; histograms = [] } -> true
    | _ -> false

  let find cells ?switch name =
    List.find_map
      (fun ((k : Metrics.Registry.key), v) ->
        if String.equal k.name name && Option.equal Int.equal k.switch switch
        then Some v
        else None)
      cells

  let counter_value r ?switch name =
    Option.value ~default:0
      (find (Metrics.Registry.snapshot r).counters ?switch name)

  let histogram_stats r ?switch name =
    find (Metrics.Registry.snapshot r).histograms ?switch name

  (* A counter's cells under every label, added. *)
  let counter_total r name =
    List.fold_left
      (fun acc ((k : Metrics.Registry.key), v) ->
        if String.equal k.name name then acc + v else acc)
      0 (Metrics.Registry.snapshot r).counters
end

module Delivery = struct
  (* Each terminal's delay from [root] along the tree, by terminal id:
     a packet multicast from [root]. *)
  let delays g t ~root =
    List.map
      (fun (d : Mctree.Delivery.delivery) -> (d.receiver, d.delay))
      (Mctree.Delivery.multicast g t ~src:root).deliveries
end

module Phase = struct
  (* Run [f] with the ambient probe set to [p], restoring the previous
     probe afterwards (also on exceptions). *)
  let with_ambient p f =
    let saved = Metrics.Phase.ambient () in
    Metrics.Phase.set_ambient p;
    Fun.protect ~finally:(fun () -> Metrics.Phase.set_ambient saved) f
end

module Graph = struct
  (* A graph with these weighted edges. *)
  let of_edges n edges =
    let g = Net.Graph.create n in
    List.iter (fun (u, v, w) -> Net.Graph.add_edge g u v ~weight:w) edges;
    g

  (* Same node count, same edges with equal weights and states. *)
  let equal a b =
    Int.equal (Net.Graph.n_nodes a) (Net.Graph.n_nodes b)
    && List.equal
         (fun ((x : Net.Graph.edge), upx) ((y : Net.Graph.edge), upy) ->
           Int.equal x.u y.u && Int.equal x.v y.v
           && Float.equal x.weight y.weight && Bool.equal upx upy)
         (Net.Graph.all_edges a) (Net.Graph.all_edges b)
end

module Bfs = struct
  (* The hop distance from [src] to every node over live links;
     [max_int] when unreachable. *)
  let hops g src =
    let dist = Array.make (Net.Graph.n_nodes g) max_int in
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun (v, _) ->
          if Int.equal dist.(v) max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v queue
          end)
        (Net.Graph.neighbors g u)
    done;
    dist
end

module Dijkstra = struct
  (* The cost of a shortest path, [infinity] if unreachable. *)
  let distance g src dst = (Net.Dijkstra.run g src).dist.(dst)

  (* The full distance matrix. *)
  let all_pairs g =
    Array.init (Net.Graph.n_nodes g) (fun src -> (Net.Dijkstra.run g src).dist)
end

module Mst = struct
  let cost edges =
    List.fold_left (fun acc (e : Net.Graph.edge) -> acc +. e.weight) 0.0 edges

  (* The edges connect every node of the graph. *)
  let spans g edges =
    let n = Net.Graph.n_nodes g in
    n <= 1
    ||
    let uf = Net.Union_find.create n in
    List.iter
      (fun (e : Net.Graph.edge) -> ignore (Net.Union_find.union uf e.u e.v))
      edges;
    Int.equal (Net.Union_find.n_sets uf) 1
end

module Path = struct
  (* Every consecutive pair is joined by a live link, and the path is
     non-empty. *)
  let is_valid g = function
    | [] -> false
    | path ->
      List.for_all
        (fun (u, v) -> Net.Graph.link_is_up g u v)
        (Net.Path.edges path)
end

module Topo_gen = struct
  (* G(n, p) with [p = 3.0 /. float n] (mean degree about 3) and uniform
     random weights in [[min_weight, max_weight]] (default [[1, 10]]),
     made connected with every pair equally cheap to join: node [0] is
     joined to the smallest member of each other component, and each
     joining edge draws its weight like the rest. *)
  let erdos_renyi rng ~n ?(min_weight = 1.0) ?(max_weight = 10.0) () =
    let p = 3.0 /. float_of_int n in
    let g = Net.Graph.create n in
    let draw_weight () =
      if Float.equal max_weight min_weight then min_weight
      else min_weight +. Sim.Rng.float rng (max_weight -. min_weight)
    in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Sim.Rng.float rng 1.0 < p then
          Net.Graph.add_edge g u v ~weight:(draw_weight ())
      done
    done;
    Net.Topo_gen.connect_components g
      ~cost:(fun _ _ -> 1.0)
      ~weight:(fun _ _ -> draw_weight ());
    g
end

module Trace = struct
  (* Retained entries in the given category. *)
  let count_category t cat =
    List.length
      (List.filter
         (fun (e : Sim.Trace.entry) ->
           String.equal (Sim.Trace.category e.event) cat)
         (Sim.Trace.entries t))

  (* [Sim.Trace.read_jsonl] over a capture holding [text]. *)
  let read text =
    with_temp_file (fun path ->
        write_file path text;
        Sim.Trace.read_jsonl ~path)

  (* The archive a capture of [t] reads back as. *)
  let round_trip t =
    with_temp_file (fun path ->
        Sim.Trace.write_jsonl t ~path;
        Sim.Trace.read_jsonl ~path)

  (* Ids assigned so far, as the capture's header records them. *)
  let emitted t = (Result.get_ok (round_trip t)).a_emitted
end

module Bursty = struct
  (* A conflicting burst against an established MC: [leaves] members
     drawn from [current] leave while [joins] non-members join, all
     inside the window (a joiner of an asymmetric MC is a receiver). *)
  let churn rng ~current ~n ~(mc : Dgmc.Mc_id.t) ~joins:n_joins
      ~leaves:n_leaves ~window ?(start = 0.0) () =
    if window <= 0.0 then invalid_arg "Bursty.churn: window must be positive";
    if n_leaves > List.length current then
      invalid_arg "Bursty.churn: more leaves than members";
    let outsiders =
      List.filter (fun x -> not (List.mem x current)) (List.init n Fun.id)
    in
    if n_joins > List.length outsiders then
      invalid_arg "Bursty.churn: more joins than non-members";
    let role =
      match mc.kind with
      | Dgmc.Mc_id.Symmetric -> Dgmc.Member.Both
      | Dgmc.Mc_id.Receiver_only | Dgmc.Mc_id.Asymmetric -> Dgmc.Member.Receiver
    in
    let leavers = Sim.Rng.sample rng n_leaves current in
    let joiners = Sim.Rng.sample rng n_joins outsiders in
    let at action =
      { Workload.Events.time = start +. Sim.Rng.float rng window; action }
    in
    let leave_events =
      List.map (fun switch -> at (Workload.Events.Leave { switch; mc })) leavers
    in
    let join_events =
      List.map
        (fun switch -> at (Workload.Events.Join { switch; mc; role }))
        joiners
    in
    Workload.Events.sort (leave_events @ join_events)
end

module Script = struct
  (* [Workload.Script.load] over a scenario file holding [text]. *)
  let parse text =
    with_temp_file (fun path ->
        write_file path text;
        Workload.Script.load path)
end
