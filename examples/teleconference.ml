(* A full teleconference lifecycle on a 40-switch network: everyone dials
   in within a second (bursty arrivals), membership churns during the
   call, then the call drains.  Demonstrates composing the Bursty and
   Poisson generators into one session's lifecycle, and per-phase
   signaling accounting.

     dune exec examples/teleconference.exe *)

(* The member set a schedule leaves behind, replayed in time order. *)
let members_after events =
  List.fold_left
    (fun members (e : Workload.Events.t) ->
      match e.action with
      | Join { switch; _ } -> List.sort_uniq Int.compare (switch :: members)
      | Leave { switch; _ } -> List.filter (fun x -> x <> switch) members
      | Link_down _ | Link_up _ -> members)
    [] (Workload.Events.sort events)

(* One session's life in three phases: an arrival burst from time 0,
   churn from one arrival window later, then the departure of whoever
   is a member by then within a final window.  The phases stay apart so
   the caller can quiesce and reset the counters between them. *)
let lifecycle rng ~n ~mc ~participants ~arrival_window ~churn_events
    ~churn_mean_gap ~departure_window =
  let arrivals =
    Workload.Bursty.joins rng ~n ~mc ~members:participants
      ~window:arrival_window ()
  in
  let churn_start = 2.0 *. arrival_window in
  (* Poisson.membership emits join events for its [initial] seed; those
     switches are already members, so drop the seed events. *)
  let churn =
    Workload.Poisson.membership rng ~n ~mc ~events:churn_events
      ~mean_gap:churn_mean_gap ~initial:(members_after arrivals)
      ~start:churn_start ()
    |> List.filter (fun (e : Workload.Events.t) -> e.time > churn_start)
  in
  let last_churn =
    List.fold_left
      (fun acc (e : Workload.Events.t) -> Float.max acc e.time)
      churn_start churn
  in
  let departure_start = last_churn +. churn_mean_gap in
  let departures =
    List.map
      (fun switch ->
        {
          Workload.Events.time =
            departure_start +. Sim.Rng.float rng departure_window;
          action = Leave { switch; mc };
        })
      (members_after (arrivals @ churn))
    |> Workload.Events.sort
  in
  (arrivals, churn, departures)

let phase_report net mc label =
  let totals = Dgmc.Protocol.totals net in
  let per ev x = if ev = 0 then 0.0 else float_of_int x /. float_of_int ev in
  Format.printf
    "%-12s %3d events  %5.2f computations/event  %5.2f floodings/event  %s@."
    label totals.events
    (per totals.events totals.computations)
    (per totals.events totals.mc_floodings)
    (if Dgmc.Protocol.converged net mc then "converged" else "NOT CONVERGED");
  Dgmc.Protocol.reset_counters net

let () =
  let seed = 7 in
  let n = 40 in
  let graph = Experiments.Harness.graph_for ~seed ~n in
  let config = Dgmc.Config.atm_lan in
  let net = Dgmc.Protocol.create ~graph ~config () in
  let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 42 in
  let rng = Sim.Rng.create seed in

  Format.printf "teleconference on %d switches (%d links)@.@." n
    (Net.Graph.n_edges graph);

  let arrivals, churn, departures =
    lifecycle rng ~n ~mc ~participants:12
      ~arrival_window:(Dgmc.Config.round_length config ~graph)
      ~churn_events:20
      ~churn_mean_gap:(20.0 *. Dgmc.Config.round_length config ~graph)
      ~departure_window:(Dgmc.Config.round_length config ~graph)
  in

  (* Phase 1: arrival burst. *)
  Workload.Events.apply_dgmc net arrivals;
  Dgmc.Protocol.run net;
  (match Dgmc.Protocol.agreed_topology net mc with
  | Some tree ->
    Format.printf "call established: %d participants, tree cost %.2f@.@."
      (Mctree.Tree.n_terminals tree)
      (Mctree.Tree.cost graph tree)
  | None -> ());
  phase_report net mc "arrivals";

  (* Phase 2: churn — people joining and dropping during the call. *)
  Workload.Events.apply_dgmc net churn;
  Dgmc.Protocol.run net;
  phase_report net mc "churn";

  (* Phase 3: the call winds down. *)
  Workload.Events.apply_dgmc net departures;
  Dgmc.Protocol.run net;
  phase_report net mc "departures";

  let survivors =
    List.filter
      (fun i -> Dgmc.Switch.members (Dgmc.Protocol.switch net i) mc <> None)
      (List.init n (fun i -> i))
  in
  Format.printf "@.MC state remaining after everyone left: %d switches@."
    (List.length survivors);
  assert (survivors = [])
