type severity = Error | Warning

type diagnostic = { line : int; severity : severity; message : string }

module Script = Workload.Script
module Events = Workload.Events

(* The same event as far as the run is concerned: a role does not make
   a second join of the same switch to the same MC any less redundant. *)
let same_action a b =
  match (a, b) with
  | Events.Join a, Events.Join b -> a.switch = b.switch && Dgmc.Mc_id.equal a.mc b.mc
  | Events.Leave a, Events.Leave b -> a.switch = b.switch && Dgmc.Mc_id.equal a.mc b.mc
  | Events.Link_down (u, v), Events.Link_down (u', v')
  | Events.Link_up (u, v), Events.Link_up (u', v') ->
    u = u' && v = v'
  | _ -> false

let lint text =
  let diags = ref [] in
  let emit severity line fmt =
    Printf.ksprintf
      (fun message -> diags := { line; severity; message } :: !diags)
      fmt
  in
  let err line fmt = emit Error line fmt in
  let warn line fmt = emit Warning line fmt in
  let malformed = ref false in
  let graph = ref None in
  let config = ref None in
  let faults_declared = ref false in
  let mcs = ref [] in (* (decl line, id) — in declaration order *)
  let used = ref [] in (* mc ids referenced by some event *)
  let events = ref [] in (* (line, (time, rounds?), action) — file order *)
  let churns = ref [] in (* (line, churn_directive) — file order *)
  let health_decl = ref None in (* (line, health_directive) *)
  (* ---- pass 1: what each line says (Script.directives) ---- *)
  List.iter
    (fun (line, parsed) ->
      match parsed with
      | Stdlib.Error m ->
        malformed := true;
        err line "%s" m
      | Ok (Script.Graph g) ->
        if Option.is_some !graph then
          warn line "duplicate 'graph' directive overrides the previous one";
        graph := Some g
      | Ok (Script.Config c) ->
        if Option.is_some !config then
          warn line "duplicate 'config' directive overrides the previous one";
        config := Some c
      | Ok (Script.Faults (spec, _)) ->
        if !faults_declared then
          warn line "duplicate 'faults' directive overrides the previous one";
        faults_declared := true;
        if Faults.Plan.spec_is_transparent spec then
          warn line
            "fault plan injects nothing (all probabilities and delays are \
             zero)"
      | Ok (Script.Mc m) -> mcs := !mcs @ [ (line, m.id) ]
      | Ok (Script.At (time, action)) ->
        (match action with
        | Events.Join { mc; _ } | Events.Leave { mc; _ } ->
          used := mc.id :: !used
        | Events.Link_down _ | Events.Link_up _ -> ());
        events := !events @ [ (line, time, action) ]
      | Ok (Script.Churn d) ->
        used := d.churn_mc.id :: !used;
        churns := !churns @ [ (line, d) ]
      | Ok (Script.Health d) ->
        if Option.is_some !health_decl then
          warn line "duplicate 'health' directive overrides the previous one";
        health_decl := Some (line, d))
    (Script.directives text);
  (* ---- pass 2: semantics over the resolved timeline ---- *)
  (match !graph with
  | None ->
    (* Script.parse reports the first malformed line before this. *)
    if not !malformed then err 0 "missing 'graph' directive"
  | Some g ->
    let config = Option.value !config ~default:Dgmc.Config.atm_lan in
    let round = Dgmc.Config.round_length config ~graph:g in
    let resolved =
      List.filter_map
        (fun (line, (v, rounds), action) ->
          match Script.check_target g action with
          | Ok () -> Some (line, (if rounds then v *. round else v), action)
          | Stdlib.Error m ->
            err line "%s" m;
            None)
        !events
    in
    (* Monotone file order: later lines should not move back in time. *)
    ignore
      (List.fold_left
         (fun prev (line, time, _) ->
           (match prev with
           | Some (pline, ptime) when time < ptime ->
             warn line
               "event time moves backwards (earlier than line %d); events \
                still run in time order"
               pline
           | _ -> ());
           Some (line, time))
         None resolved);
    (* Exact duplicates. *)
    let rec dup_scan = function
      | [] -> ()
      | (line, time, act) :: rest ->
        (match
           List.find_opt
             (fun (_, t, a) -> Float.equal t time && same_action a act)
             rest
         with
        | Some (line', _, _) ->
          err line' "duplicate event (same time and action as line %d)" line
        | None -> ());
        dup_scan rest
    in
    dup_scan resolved;
    (* Churn directives expand deterministically; an expansion the graph
       cannot host is an error, and the expanded events join the replay
       below so scripted events are checked against churn-held state. *)
    let churn_resolved =
      List.concat_map
        (fun (line, d) ->
          match Script.churn_events ~graph:g ~config d with
          | Ok evs ->
            List.map (fun (e : Events.t) -> (line, e.time, e.action)) evs
          | Stdlib.Error m ->
            err line "%s" m;
            [])
        !churns
    in
    (* Replay membership and link state in event-time order (stable on
       ties, matching Workload.Events.sort). *)
    let timeline =
      List.stable_sort
        (fun (_, t1, _) (_, t2, _) -> Float.compare t1 t2)
        (resolved @ churn_resolved)
    in
    let member = Hashtbl.create 16 in (* (mc, switch) -> () *)
    let link_down = Hashtbl.create 16 in (* (u, v) with u < v *)
    let link line u v ~up =
      let key = (min u v, max u v) in
      let down = Hashtbl.mem link_down key in
      if up && not down then warn line "link (%d, %d) is already up" u v
      else if (not up) && down then
        warn line "link (%d, %d) is already down" u v;
      if up then Hashtbl.remove link_down key
      else Hashtbl.replace link_down key ()
    in
    List.iter
      (fun (line, _, action) ->
        match action with
        | Events.Join { switch; mc; _ } ->
          Hashtbl.replace member (mc.Dgmc.Mc_id.id, switch) ()
        | Events.Leave { switch; mc } ->
          if not (Hashtbl.mem member (mc.id, switch)) then
            err line
              "leave without a preceding join (switch %d is not a member \
               of mc %d at this time)"
              switch mc.id
          else Hashtbl.remove member (mc.id, switch)
        | Events.Link_down (u, v) -> link line u v ~up:false
        | Events.Link_up (u, v) -> link line u v ~up:true)
      timeline;
    (* A health directive must resolve to a valid configuration against
       this graph and regime — the same resolution Script.parse does. *)
    match !health_decl with
    | None -> ()
    | Some (hline, d) ->
      let last_event =
        List.fold_left (fun acc (_, t, _) -> Float.max acc t) 0.0 timeline
      in
      let hc = Script.health_config ~graph:g ~config ~last_event d in
      (match Health.Config.validate hc with
      | Ok () -> ()
      | Stdlib.Error m -> err hline "%s" m);
      if
        not
          (List.exists
             (fun (_, _, action) ->
               match action with
               | Events.Link_down _ | Events.Link_up _ -> true
               | Events.Join _ | Events.Leave _ -> false)
             timeline)
      then
        warn hline
          "health directive but no scripted link events: the detectors \
           have nothing to discover");
  List.iter
    (fun (line, id) ->
      if not (List.mem id !used) then
        warn line "mc %d declared but never used by any event" id)
    !mcs;
  List.stable_sort
    (fun a b -> Int.compare a.line b.line)
    (List.rev !diags)

let errors diags =
  List.length (List.filter (fun d -> d.severity = Error) diags)

let warnings diags =
  List.length (List.filter (fun d -> d.severity = Warning) diags)

let render ?file d =
  let prefix =
    match (file, d.line) with
    | Some f, 0 -> f ^ ": "
    | Some f, l -> Printf.sprintf "%s:%d: " f l
    | None, 0 -> ""
    | None, l -> Printf.sprintf "line %d: " l
  in
  Printf.sprintf "%s%s: %s" prefix
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.message
