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
    Metrics.Registry.snapshot r = []

  let find cells ?switch name =
    List.find_map
      (fun ((k : Metrics.Registry.key), v) ->
        if String.equal k.name name && Option.equal Int.equal k.switch switch
        then Some v
        else None)
      cells

  let counter_value r ?switch name =
    Option.value ~default:0
      (find (Metrics.Registry.snapshot r) ?switch name)

  (* A counter's cells under every label, added. *)
  let counter_total r name =
    List.fold_left
      (fun acc ((k : Metrics.Registry.key), v) ->
        if String.equal k.name name then acc + v else acc)
      0 (Metrics.Registry.snapshot r)
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

  (* The hop diameter by one search per source, the scalar sweep
     [Net.Bfs.hop_diameter] ran before it searched a word of sources at
     a time: over a flat copy of the live links (CSR), each source's
     search marks the nodes it reaches with its own id in [stamp], so no
     array is cleared between searches; the last node it dequeues is
     the farthest. *)
  let hop_diameter g =
    let n = Net.Graph.n_nodes g in
    let offsets = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      offsets.(u + 1) <- offsets.(u) + Net.Graph.degree g u
    done;
    let targets = Array.make offsets.(n) 0 and fill = ref 0 in
    for u = 0 to n - 1 do
      Net.Graph.iter_neighbors g u (fun v _ ->
          targets.(!fill) <- v;
          incr fill)
    done;
    let stamp = Array.make n (-1)
    and depth = Array.make n 0
    and queue = Array.make n 0 in
    let best = ref 0 in
    for src = 0 to n - 1 do
      stamp.(src) <- src;
      depth.(src) <- 0;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        let d = depth.(u) + 1 in
        for i = offsets.(u) to offsets.(u + 1) - 1 do
          let v = targets.(i) in
          if stamp.(v) <> src then begin
            stamp.(v) <- src;
            depth.(v) <- d;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done;
      let e = depth.(queue.(!tail - 1)) in
      if e > !best then best := e
    done;
    !best
end

module Flooding = struct
  (* The duplicate check [Lsr.Flooding] kept before its per-origin rows:
     one record per (switch, origin) pair heard from, in a hash table
     keyed [switch * n + origin].  A switch has received every sequence
     number below [high] outside [gaps], disjoint half-open intervals
     [lo, hi), highest first. *)
  type gaps = No_gap | Gap of { lo : int; hi : int; below : gaps }

  type received = { mutable high : int; mutable gaps : gaps }

  type t = { n : int; seen : (int, received) Hashtbl.t }

  let create n = { n; seen = Hashtbl.create 64 }

  let rec in_gaps seq = function
    | No_gap -> false
    | Gap g -> seq < g.hi && (seq >= g.lo || in_gaps seq g.below)

  let rec fill seq = function
    | No_gap -> No_gap
    | Gap g when seq >= g.lo ->
      let below =
        if seq > g.lo then Gap { lo = g.lo; hi = seq; below = g.below }
        else g.below
      in
      if seq + 1 < g.hi then Gap { lo = seq + 1; hi = g.hi; below } else below
    | Gap g -> Gap { g with below = fill seq g.below }

  (* Record [(origin, seq)] as received at [switch]; [true] on its first
     receipt there. *)
  let first_receipt t ~switch ~origin ~seq =
    match Hashtbl.find_opt t.seen ((switch * t.n) + origin) with
    | Some r ->
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
    | None ->
      let gaps =
        if seq > 0 then Gap { lo = 0; hi = seq; below = No_gap } else No_gap
      in
      Hashtbl.add t.seen ((switch * t.n) + origin) { high = seq + 1; gaps };
      true
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
        Out_channel.with_open_text path (Sim.Trace.write_jsonl t);
        Sim.Trace.read_jsonl ~path)

  (* Ids assigned so far, as the capture's header records them. *)
  let emitted t = (Result.get_ok (round_trip t)).a_emitted

  (* A stamp's dense view, and the canonical sparse stamp of a dense
     vector, written independently of the library's walks. *)
  let dense (s : Sim.Trace.stamp) =
    let a = Array.make s.size 0 in
    for j = 0 to (Array.length s.nonzero / 2) - 1 do
      a.(s.nonzero.(2 * j)) <- s.nonzero.((2 * j) + 1)
    done;
    a

  let sparse a =
    let nonzero =
      List.concat
        (List.mapi (fun i x -> if x = 0 then [] else [ i; x ]) (Array.to_list a))
    in
    { Sim.Trace.size = Array.length a; nonzero = Array.of_list nonzero }

  (* The store the columns replaced: one boxed entry record per event in
     an array that grows geometrically up to [cap], then evicts its
     oldest entry; and its JSONL writer, stamps rendered dense. *)
  module Ring = struct
    type t = {
      cap : int;
      cats : string list option;
      mutable buf : Sim.Trace.entry array;
      mutable start : int;
      mutable len : int;
      mutable next_id : int;
      mutable evicted : int;
      mutable ctx : int;
    }

    let create ~cap ?cats () =
      {
        cap;
        cats;
        buf = [||];
        start = 0;
        len = 0;
        next_id = 0;
        evicted = 0;
        ctx = -1;
      }

    let retains t ev =
      match t.cats with
      | None -> true
      | Some cats -> List.exists (String.equal (Sim.Trace.category ev)) cats

    let push t e =
      let capacity = Array.length t.buf in
      if t.len < t.cap then begin
        if t.len = capacity then begin
          let grown = Array.make (min t.cap (max 256 (2 * capacity))) e in
          Array.blit t.buf 0 grown 0 t.len;
          t.buf <- grown
        end;
        t.buf.(t.len) <- e;
        t.len <- t.len + 1
      end
      else begin
        t.buf.(t.start) <- e;
        t.start <- (t.start + 1) mod capacity;
        t.evicted <- t.evicted + 1
      end

    let emit t ~time ?parent event =
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent = match parent with Some p -> p | None -> t.ctx in
      if retains t event then push t { Sim.Trace.id; parent; time; event };
      id

    let set_context t id =
      let saved = t.ctx in
      if id >= 0 then t.ctx <- id;
      saved

    let restore_context t saved = t.ctx <- saved

    let entries t =
      List.init t.len (fun i -> t.buf.((t.start + i) mod Array.length t.buf))

    let count t = t.len

    let emitted t = t.next_id

    let dropped t = t.evicted

    let event_fields b (event : Sim.Trace.event) =
      let int key v = Printf.bprintf b ",\"%s\":%d" key v
      and str key v = Printf.bprintf b ",\"%s\":\"%s\"" key (Sim.Json.escape v)
      and bool key v = Printf.bprintf b ",\"%s\":%b" key v
      and vec key v =
        Printf.bprintf b ",\"%s\":[%s]" key
          (String.concat "," (List.map string_of_int (Array.to_list (dense v))))
      in
      match event with
      | Lsa_originated { switch; mc; seq; ev; proposal; stamp } ->
        str "kind" "lsa-originated";
        int "switch" switch;
        str "mc" mc;
        int "seq" seq;
        str "ev" ev;
        bool "proposal" proposal;
        vec "stamp" stamp
      | Lsa_forwarded { src; dst; origin; seq; retransmit } ->
        str "kind" "lsa-forwarded";
        int "src" src;
        int "dst" dst;
        int "origin" origin;
        int "seq" seq;
        bool "retransmit" retransmit
      | Lsa_delivered { switch; source; origin; seq } ->
        str "kind" "lsa-delivered";
        int "switch" switch;
        int "source" source;
        int "origin" origin;
        int "seq" seq
      | Lsa_dropped { src; dst; origin; seq; reason } ->
        str "kind" "lsa-dropped";
        int "src" src;
        int "dst" dst;
        int "origin" origin;
        int "seq" seq;
        str "reason" reason
      | Compute_started { switch; mc; trigger; r } ->
        str "kind" "compute-started";
        int "switch" switch;
        str "mc" mc;
        str "trigger" trigger;
        vec "r" r
      | Proposal_made { switch; mc; withdrawn; stamp } ->
        str "kind" "proposal-made";
        int "switch" switch;
        str "mc" mc;
        bool "withdrawn" withdrawn;
        vec "stamp" stamp
      | Topology_installed { switch; mc; r; e; c; members; tree } ->
        str "kind" "topology-installed";
        int "switch" switch;
        str "mc" mc;
        vec "r" r;
        vec "e" e;
        vec "c" c;
        str "members" members;
        str "tree" tree
      | Fault_injected { src; dst; fault } ->
        str "kind" "fault-injected";
        int "src" src;
        int "dst" dst;
        str "fault" fault
      | Crash { switch } ->
        str "kind" "crash";
        int "switch" switch
      | Recover { switch } ->
        str "kind" "recover";
        int "switch" switch
      | Resync { switch; peer; mc } ->
        str "kind" "resync";
        int "switch" switch;
        int "peer" peer;
        str "mc" mc
      | Link_detected { switch; peer; up; latency; spurious } ->
        str "kind" "link-detected";
        int "switch" switch;
        int "peer" peer;
        bool "up" up;
        Printf.bprintf b ",\"latency\":%s" (Sim.Json.number latency);
        bool "spurious" spurious
      | Link_suppressed { switch; peer; resumed } ->
        str "kind" "link-suppressed";
        int "switch" switch;
        int "peer" peer;
        bool "resumed" resumed
      | Note { category; message } ->
        str "kind" "note";
        str "cat" category;
        str "msg" message

    let to_jsonl t =
      let b = Buffer.create 4096 in
      Printf.bprintf b
        "{\"schema\":\"dgmc-trace/1\",\"emitted\":%d,\"dropped\":%d}\n"
        (emitted t) (dropped t);
      List.iter
        (fun (e : Sim.Trace.entry) ->
          Printf.bprintf b "{\"id\":%d,\"parent\":%d,\"t\":%s" e.id e.parent
            (Sim.Json.number e.time);
          event_fields b e.event;
          Buffer.add_string b "}\n")
        (entries t);
      Buffer.contents b
  end
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
