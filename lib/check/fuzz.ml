type case = {
  seed : int;
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  regime : string;
  fault_spec : Faults.Plan.spec;
  fault_seed : int;
  crashes : (int * float * float) list;
  partitions : (int list * float * float) list;
  mcs : Dgmc.Mc_id.t list;
  events : Workload.Events.t list;
}

type stats = {
  s_totals : Dgmc.Protocol.totals;
  s_faults : Faults.Plan.counters;
  s_sweeps : int;
}

type failure = {
  f_case : case;
  f_problems : string list;
  f_shrunk : Workload.Events.t list;
  f_shrink_runs : int;
}

type outcome = {
  o_iterations : int;
  o_failures : failure list;
  o_stats : stats list;
}

(* ------------------------------------------------------------------ *)
(* Case generation *)

(* Scheduled fault windows must be bridgeable by reliable flooding:
   under the default reliability parameters a transfer keeps retrying
   for 508 hop times before it gives up (its 11 waits, rto 4 doubling
   to a 64 cap: 4 + 8 + 16 + 32 + 7 x 64), so any outage shorter than
   [max_window_hops] hop times is guaranteed to be spanned by at least
   one retransmission landing after the window closes. *)
let max_window_hops = 100.0

(* Every case has 4..[n_max] switches, 1..[mcs_max] MCs and
   5..[events_max] workload events (link restorations may add a few). *)
let n_max = 20

let mcs_max = 3

let events_max = 20

let case_of_seed ~health seed =
  let master = Sim.Rng.create seed in
  let topo_rng = Sim.Rng.split master in
  let fault_rng = Sim.Rng.split master in
  let work_rng = Sim.Rng.split master in
  let n = Sim.Rng.range topo_rng 4 n_max in
  let graph = Net.Topo_gen.waxman topo_rng ~n in
  let regime = if Sim.Rng.int work_rng 4 = 0 then "wan" else "atm" in
  let config = List.assoc regime Dgmc.Config.regimes in
  let config = { config with Dgmc.Config.flood_mode = Lsr.Flooding.Reliable } in
  let t_hop = config.Dgmc.Config.t_hop in
  let round = Dgmc.Config.round_length config ~graph in
  let horizon = 20.0 *. round in
  let fault_spec =
    {
      Faults.Plan.drop = Sim.Rng.float fault_rng 0.35;
      duplicate = Sim.Rng.float fault_rng 0.3;
      reorder = Sim.Rng.float fault_rng 0.3;
      jitter = Sim.Rng.float fault_rng 1.0;
    }
  in
  let window () =
    let start = Sim.Rng.float fault_rng (0.6 *. horizon) in
    let len = (10.0 +. Sim.Rng.float fault_rng (max_window_hops -. 10.0)) *. t_hop in
    (start, start +. len)
  in
  let crashes =
    if Sim.Rng.int fault_rng 2 = 0 then begin
      let sw = Sim.Rng.int fault_rng n in
      let a, b = window () in
      [ (sw, a, b) ]
    end
    else []
  in
  let partitions =
    if Sim.Rng.int fault_rng 3 = 0 then begin
      let side_size = 1 + Sim.Rng.int fault_rng (max 1 (n / 2)) in
      let side =
        List.sort Int.compare
          (Sim.Rng.sample fault_rng side_size (List.init n Fun.id))
      in
      let a, b = window () in
      [ (side, a, b) ]
    end
    else []
  in
  let n_mcs = 1 + Sim.Rng.int work_rng mcs_max in
  let mcs =
    List.init n_mcs (fun i ->
        let kind =
          match Sim.Rng.int work_rng 3 with
          | 0 -> Dgmc.Mc_id.Symmetric
          | 1 -> Dgmc.Mc_id.Receiver_only
          | _ -> Dgmc.Mc_id.Asymmetric
        in
        Dgmc.Mc_id.make kind (i + 1))
  in
  (* Workload: a time-ordered schedule built left to right so that every
     leave targets a current member and every link failure is restored
     (the terminal agreement demanded afterwards is only meaningful on
     the healed network). *)
  let n_events = Sim.Rng.range work_rng 5 events_max in
  let shape = ref Workload.Events.empty_shape in
  let join_order = Hashtbl.create 4 in (* mc id -> joins so far *)
  let failed = ref [] in (* (u, v) failed so far, each with its heal *)
  let events = ref [] in
  let emit time action =
    shape := fst (Workload.Events.step !shape action);
    events := { Workload.Events.time; action } :: !events
  in
  let role_for (mc : Dgmc.Mc_id.t) =
    match mc.kind with
    | Dgmc.Mc_id.Symmetric -> Dgmc.Member.Both
    | Dgmc.Mc_id.Receiver_only -> Dgmc.Member.Receiver
    | Dgmc.Mc_id.Asymmetric ->
      let order =
        Option.value ~default:0 (Hashtbl.find_opt join_order mc.id)
      in
      if order = 0 || Sim.Rng.int work_rng 5 = 0 then Dgmc.Member.Sender
      else Dgmc.Member.Receiver
  in
  for i = 0 to n_events - 1 do
    let time = float_of_int (i + 1) /. float_of_int n_events *. horizon in
    let time = time -. Sim.Rng.float work_rng (horizon /. float_of_int n_events) in
    let mc = List.nth mcs (Sim.Rng.int work_rng n_mcs) in
    match Sim.Rng.int work_rng 100 with
    | p when p < 55 ->
      (* join at a switch not yet a member of this MC *)
      let members = Workload.Events.members !shape mc in
      let candidates =
        List.filter
          (fun sw -> not (List.mem sw members))
          (List.init n Fun.id)
      in
      (match candidates with
      | [] -> ()
      | _ ->
        let sw = Sim.Rng.pick work_rng candidates in
        let role = role_for mc in
        Hashtbl.replace join_order mc.Dgmc.Mc_id.id
          (1 + Option.value ~default:0 (Hashtbl.find_opt join_order mc.Dgmc.Mc_id.id));
        emit time (Workload.Events.Join { switch = sw; mc; role }))
    | p when p < 80 -> (
      match Workload.Events.members !shape mc with
      | [] -> ()
      | members ->
        let sw = Sim.Rng.pick work_rng members in
        emit time (Workload.Events.Leave { switch = sw; mc }))
    | _ ->
      (* Fail a link and schedule its restoration.  [failed] is never
         pruned (a restored link stays listed), so a case fails at most
         two distinct links in total — they need not overlap in time —
         which keeps runs from degenerating into a dark network. *)
      if List.length !failed < 2 then begin
        let live =
          List.filter
            (fun (e : Net.Graph.edge) ->
              not (List.mem (e.u, e.v) !failed))
            (Net.Graph.edges graph)
        in
        match live with
        | [] -> ()
        | _ ->
          let e = Sim.Rng.pick work_rng live in
          let heal = time +. (0.5 +. Sim.Rng.float work_rng 2.5) *. round in
          failed := (e.Net.Graph.u, e.Net.Graph.v) :: !failed;
          emit time (Workload.Events.Link_down (e.Net.Graph.u, e.Net.Graph.v));
          emit heal (Workload.Events.Link_up (e.Net.Graph.u, e.Net.Graph.v))
      end
  done;
  let case =
    {
      seed;
      graph;
      config;
      regime;
      fault_spec;
      fault_seed = seed;
      crashes;
      partitions;
      mcs;
      events = Workload.Events.sort (List.rev !events);
    }
  in
  if not health then case
  else begin
    (* Health band: the same seed draws the same topology, workload and
       message faults, then the case is transformed AFTER generation so
       the default stream stays byte-identical.  Detectors must discover
       every scripted link change themselves, so the oracle (terminal
       agreement with ground truth) is only sound when hellos cannot be
       silently eaten: message drops are zeroed (duplication, reordering
       and jitter stay) and crash/partition windows are stripped, which
       [Protocol.create] requires: it rejects the health layer together
       with a scheduled window. *)
    let hc =
      match
        Workload.Script.health_of_spec ~graph ~config ~events:case.events ""
      with
      | Ok hc -> hc
      | Error e -> invalid_arg ("fuzz health defaults: " ^ e)
    in
    {
      case with
      config = { config with Dgmc.Config.health = Some hc };
      fault_spec = { case.fault_spec with Faults.Plan.drop = 0.0 };
      crashes = [];
      partitions = [];
    }
  end

(* ------------------------------------------------------------------ *)
(* Execution *)

let max_engine_events = 20_000_000

let build_plan case =
  let plan = Faults.Plan.create ~spec:case.fault_spec ~seed:case.fault_seed () in
  List.iter
    (fun (sw, from_, until) -> Faults.Plan.crash_switch plan ~switch:sw ~from_ ~until)
    case.crashes;
  List.iter
    (fun (side, from_, until) -> Faults.Plan.partition plan ~side ~from_ ~until)
    case.partitions;
  plan

let run_events ?(trace = Sim.Trace.disabled) case events =
  let plan = build_plan case in
  let net =
    Dgmc.Protocol.create
      ~graph:(Net.Graph.copy case.graph)
      ~config:case.config ~faults:plan ~trace ()
  in
  let monitor = Monitor.attach net in
  Workload.Events.apply_dgmc net events;
  Dgmc.Protocol.run net ~max_events:max_engine_events;
  let problems =
    if Sim.Engine.pending (Dgmc.Protocol.engine net) > 0 then
      [
        Printf.sprintf
          "run did not quiesce within %d engine events (retransmission \
           storm or livelock?)"
          max_engine_events;
      ]
    else begin
      Monitor.check_terminal monitor;
      Monitor.violations monitor
    end
  in
  match problems with
  | [] ->
    Ok
      {
        s_totals = Dgmc.Protocol.totals net;
        s_faults = Faults.Plan.counters plan;
        s_sweeps = Monitor.sweeps monitor;
      }
  | problems -> Error problems

let run_case ?trace case = run_events ?trace case case.events

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let max_shrink_runs = 200

(* The laws a failure breaks: the "[law]" tag of each problem, or the
   whole line for the livelock report, which is its own tag. *)
let law_tags problems =
  List.sort_uniq String.compare
    (List.map
       (fun p ->
         match String.index_opt p ']' with
         | Some i when p.[0] = '[' -> String.sub p 0 (i + 1)
         | _ -> p)
       problems)

let link u v = (min u v, max u v)

(* [b] undoes [a]: the leave of a join, the link-up of a link-down. *)
let undoes (a : Workload.Events.action) (b : Workload.Events.action) =
  match (a, b) with
  | Join j, Leave l -> j.switch = l.switch && j.mc.id = l.mc.id
  | Link_down (u, v), Link_up (x, y) -> link u v = link x y
  | _ -> false

(* The removable units of a workload, as event positions, in order of
   their first event: a join or a link-down together with the first
   later event that undoes it.  A leave or a link-up never goes alone. *)
let units events =
  let arr = Array.of_list events in
  List.concat
    (List.mapi
       (fun i (e : Workload.Events.t) ->
         match e.action with
         | Leave _ | Link_up _ -> []
         | Join _ | Link_down _ ->
           let rec partner j =
             if j >= Array.length arr then []
             else if undoes e.action arr.(j).Workload.Events.action then [ j ]
             else partner (j + 1)
           in
           [ i :: partner (i + 1) ])
       events)

(* Greedy unit removal, then timing: deterministic, and every probe is a
   full (cheap, seeded) simulation of the same case with a
   sub-workload.  A candidate counts only if it keeps the generator's
   shape and fails with the same laws, so shrinking can neither leave a
   partition unhealed nor drift onto a different bug. *)
let shrink case problems =
  let target = law_tags problems in
  let runs = ref 0 in
  let fails_alike events =
    Workload.Events.well_formed events
    && begin
         incr runs;
         match run_events case events with
         | Ok _ -> false
         | Error ps -> law_tags ps = target
       end
  in
  let rec pass events k =
    let us = units events in
    if !runs >= max_shrink_runs || k >= List.length us then events
    else
      let drop = List.nth us k in
      let candidate = List.filteri (fun j _ -> not (List.mem j drop)) events in
      if fails_alike candidate then pass candidate k else pass events (k + 1)
  in
  (* Timing pass, left to right: pull each surviving event back to its
     predecessor's time (the first to 0), keeping the change only if the
     failure survives.  Minimality then covers placement AND timing: an
     event that stays separated in the repro is separated because the
     bug needs the gap, not because the generator happened to draw one.
     Pulling back to an earlier time preserves the sort order, so probes
     replay exactly the schedule the repro prints. *)
  let rec time_pass events i =
    if !runs >= max_shrink_runs || i >= List.length events then events
    else begin
      let earlier =
        if i = 0 then 0.0 else (List.nth events (i - 1)).Workload.Events.time
      in
      let e_i = List.nth events i in
      if e_i.Workload.Events.time <= earlier then time_pass events (i + 1)
      else
        let candidate =
          List.mapi
            (fun j e -> if j = i then { e with Workload.Events.time = earlier } else e)
            events
        in
        if fails_alike candidate then time_pass candidate (i + 1)
        else time_pass events (i + 1)
    end
  in
  let shrunk = time_pass (pass case.events 0) 0 in
  (shrunk, !runs)

(* ------------------------------------------------------------------ *)
(* Batch driver *)

let run ~health ~domains ~progress ~seed ~iterations =
  let seeds = List.init iterations (fun i -> seed + i) in
  (* The progress callback fires in seed order before the batch is
     dispatched: worker domains never touch the caller's output stream,
     so a parallel batch prints exactly what a sequential one does. *)
  List.iter progress seeds;
  (* Everything a case does — generation, execution, shrinking — is a
     pure function of its seed, so the per-seed tasks commute and the
     outcome is identical for any domain count. *)
  let outcomes =
    Runner.Pool.map ~domains
      (fun case_seed ->
        let case = case_of_seed ~health case_seed in
        match run_case case with
        | Ok s -> Ok s
        | Error problems ->
          let f_shrunk, f_shrink_runs = shrink case problems in
          Error { f_case = case; f_problems = problems; f_shrunk; f_shrink_runs })
      seeds
  in
  {
    o_iterations = iterations;
    o_failures =
      List.filter_map (function Error f -> Some f | Ok _ -> None) outcomes;
    o_stats =
      List.filter_map (function Ok s -> Some s | Error _ -> None) outcomes;
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let repro_line f =
  Printf.sprintf "dgmc_sim --fuzz --seed %d --iterations 1%s" f.f_case.seed
    (match f.f_case.config.Dgmc.Config.health with
    | Some _ -> " --health-band"
    | None -> "")

let pp_case ppf c =
  Format.fprintf ppf "@[<v>seed %d:@," c.seed;
  Format.fprintf ppf "  graph: %d switches, %d links (waxman)@,"
    (Net.Graph.n_nodes c.graph) (Net.Graph.n_edges c.graph);
  Format.fprintf ppf "  config: %s, reliable flooding@," c.regime;
  (match c.config.Dgmc.Config.health with
  | Some hc ->
    Format.fprintf ppf "  health: %s@," (Health.Config.describe hc)
  | None -> ());
  Format.fprintf ppf "  faults: %s (seed %d)@,"
    (Faults.Plan.spec_to_string c.fault_spec)
    c.fault_seed;
  List.iter
    (fun (sw, a, b) ->
      (* dgmc-analyze: allow float-format — human-readable case description *)
      Format.fprintf ppf "  crash: switch %d during [%g, %g)@," sw a b)
    c.crashes;
  List.iter
    (fun (side, a, b) ->
      (* dgmc-analyze: allow float-format — human-readable case description *)
      Format.fprintf ppf "  partition: {%s} during [%g, %g)@,"
        (String.concat ", " (List.map string_of_int side))
        a b)
    c.partitions;
  Format.fprintf ppf "  mcs: %s@,"
    (String.concat ", "
       (List.map (fun m -> Format.asprintf "%a" Dgmc.Mc_id.pp m) c.mcs));
  Format.fprintf ppf "  workload (%d events):@," (List.length c.events);
  List.iter
    (fun e -> Format.fprintf ppf "    %a@," Workload.Events.pp e)
    c.events;
  Format.fprintf ppf "@]"

let pp_failure ppf f =
  Format.fprintf ppf "@[<v>FUZZ FAILURE@,%a" pp_case f.f_case;
  Format.fprintf ppf "problems (%d):@," (List.length f.f_problems);
  List.iter (fun p -> Format.fprintf ppf "  %s@," p) f.f_problems;
  Format.fprintf ppf
    "shrunk workload (%d of %d events, %d shrink runs):@,"
    (List.length f.f_shrunk)
    (List.length f.f_case.events)
    f.f_shrink_runs;
  List.iter
    (fun e -> Format.fprintf ppf "  %a@," Workload.Events.pp e)
    f.f_shrunk;
  Format.fprintf ppf "reproduce: %s@," (repro_line f);
  Format.fprintf ppf "capture a causal trace: %s --trace seed-%d.jsonl@]"
    (repro_line f) f.f_case.seed
