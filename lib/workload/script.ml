type t = {
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  mcs : Dgmc.Mc_id.t list;
  events : Events.t list;
  faults : Faults.Plan.spec option;
  fault_seed : int;
  health : Health.Config.t option;
}

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

(* key=value option lookup within a directive's trailing tokens. *)
let opt_value opts key =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
        Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    opts

(* Every trailing token must be a known key=value option; a typo like
   [role sender] or [mc=1x] surfacing as a silently-defaulted run is far
   worse than a parse error. *)
let check_opts lineno ~allowed opts =
  List.iter
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> fail lineno "unexpected token %S (options are key=value)" tok
      | Some i ->
        let key = String.sub tok 0 i in
        if not (List.mem key allowed) then
          fail lineno "unknown option %S (allowed: %s)" key
            (String.concat ", " allowed))
    opts

let parse_int lineno what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail lineno "%s: expected an integer, got %S" what s

let generate_graph lineno args =
  let num = parse_int lineno "graph size" in
  match args with
  | [ "waxman"; n ] -> Net.Topo_gen.waxman (Sim.Rng.create 1) ~n:(num n)
  | "waxman" :: n :: opts ->
    check_opts lineno ~allowed:[ "seed" ] opts;
    let seed =
      match opt_value opts "seed" with
      | Some s -> parse_int lineno "seed" s
      | None -> 1
    in
    Net.Topo_gen.waxman (Sim.Rng.create seed) ~n:(num n)
  | [ "grid"; rows; cols ] -> Net.Topo_gen.grid ~rows:(num rows) ~cols:(num cols)
  | [ "ring"; n ] -> Net.Topo_gen.ring (num n)
  | [ "line"; n ] -> Net.Topo_gen.line (num n)
  | [ "star"; n ] -> Net.Topo_gen.star (num n)
  | [ "complete"; n ] -> Net.Topo_gen.complete (num n)
  | kind :: _ -> fail lineno "unknown graph kind %S" kind
  | [] -> fail lineno "graph: missing arguments"

(* The generators reject sizes they cannot build; a one-node graph they
   accept, the protocol does not. *)
let parse_graph lineno args =
  match generate_graph lineno args with
  | exception Invalid_argument m -> fail lineno "%s" m
  | g when Net.Graph.n_nodes g < 2 ->
    fail lineno "graph has %d switch; a scenario needs at least 2"
      (Net.Graph.n_nodes g)
  | g -> g

let parse_config lineno args =
  let names = List.map (fun (r, _) -> "'" ^ r ^ "'") Dgmc.Config.regimes in
  match List.assoc_opt (String.concat " " args) Dgmc.Config.regimes with
  | Some config -> config
  | None ->
    fail lineno "config: expected %s, got %S" (String.concat " or " names)
      (String.concat " " args)

let default_role = function
  | Dgmc.Mc_id.Symmetric -> Dgmc.Member.Both
  | Dgmc.Mc_id.Receiver_only -> Dgmc.Member.Receiver
  | Dgmc.Mc_id.Asymmetric -> Dgmc.Member.Receiver

(* Time literals: plain seconds, or "<x>r" for protocol rounds. *)
let parse_time lineno s =
  let rounds = String.length s > 1 && s.[String.length s - 1] = 'r' in
  let body = if rounds then String.sub s 0 (String.length s - 1) else s in
  match float_of_string_opt body with
  | Some v when v >= 0.0 -> (v, rounds)
  | Some _ -> fail lineno "time must be non-negative"
  | None -> fail lineno "bad time literal %S" s

(* A parsed time literal in seconds, once the round length is known. *)
let seconds ~round (v, rounds) = if rounds then v *. round else v

let find_mc lineno mcs opts =
  match opt_value opts "mc" with
  | None -> fail lineno "event needs mc=<id>"
  | Some id_s ->
    let id = parse_int lineno "mc id" id_s in
    (match List.find_opt (fun (m : Dgmc.Mc_id.t) -> m.id = id) mcs with
    | Some m -> m
    | None -> fail lineno "mc %d not declared (use a 'mc %d <type>' line first)" id id)

let graph_of_args ~line args =
  match parse_graph line args with
  | g -> Ok g
  | exception Parse_error (_, m) -> Error m

let parse_action lineno mcs = function
  | "join" :: sw :: opts ->
    check_opts lineno ~allowed:[ "mc"; "role" ] opts;
    let sw = parse_int lineno "switch" sw in
    let mc = find_mc lineno mcs opts in
    let role =
      match opt_value opts "role" with
      | Some r -> (
        match Dgmc.Member.role_of_string r with
        | Some role -> role
        | None -> fail lineno "unknown role %S" r)
      | None -> default_role mc.kind
    in
    Events.Join { switch = sw; mc; role }
  | "leave" :: sw :: opts ->
    check_opts lineno ~allowed:[ "mc" ] opts;
    Events.Leave
      { switch = parse_int lineno "switch" sw; mc = find_mc lineno mcs opts }
  | [ "linkdown"; u; v ] ->
    Events.Link_down (parse_int lineno "u" u, parse_int lineno "v" v)
  | [ "linkup"; u; v ] ->
    Events.Link_up (parse_int lineno "u" u, parse_int lineno "v" v)
  | (("linkdown" | "linkup") as verb) :: ([] | [ _ ]) ->
    fail lineno "%s: expected two switch ids" verb
  | verb :: _ -> fail lineno "unknown event %S" verb
  | [] -> fail lineno "at: missing event"

let action_of_string ~mcs s =
  match parse_action 0 mcs (tokens s) with
  | a -> Ok a
  | exception Parse_error (_, m) -> Error m

let action_to_string = function
  | Events.Join { switch; mc; role } ->
    Printf.sprintf "join %d mc=%d role=%s" switch mc.id
      (Dgmc.Member.role_to_string role)
  | Events.Leave { switch; mc } -> Printf.sprintf "leave %d mc=%d" switch mc.id
  | Events.Link_down (u, v) -> Printf.sprintf "linkdown %d %d" u v
  | Events.Link_up (u, v) -> Printf.sprintf "linkup %d %d" u v

(* Join/leave targets and link endpoints are checked against the final
   graph, once every line is read. *)
let check_target graph = function
  | Events.Join { switch; _ } | Events.Leave { switch; _ } ->
    let n = Net.Graph.n_nodes graph in
    if switch < 0 || switch >= n then
      Error (Printf.sprintf "switch %d out of range (graph has %d switches)" switch n)
    else Ok ()
  | Events.Link_down (u, v) | Events.Link_up (u, v) ->
    if Net.Graph.has_edge graph u v then Ok ()
    else Error (Printf.sprintf "no link (%d, %d) in the graph" u v)

type churn_directive = {
  churn_mc : Dgmc.Mc_id.t;
  churn_members : int;
  churn_moves : int;
  churn_period : float * bool;
  churn_start : float * bool;
  churn_waves : int;
  churn_wave_links : int;
  churn_wave_period : (float * bool) option;
  churn_seed : int;
}

let churn_allowed_keys =
  [ "mc"; "members"; "moves"; "period"; "start"; "waves"; "wave-links";
    "wave-period"; "seed" ]

let parse_churn lineno mcs opts =
  check_opts lineno ~allowed:churn_allowed_keys opts;
  let mc = find_mc lineno mcs opts in
  let int_opt key default =
    match opt_value opts key with
    | Some s -> parse_int lineno key s
    | None -> default
  in
  let members =
    match opt_value opts "members" with
    | Some s -> parse_int lineno "members" s
    | None -> fail lineno "churn needs members=<count>"
  in
  let time_opt key default =
    match opt_value opts key with
    | Some s -> parse_time lineno s
    | None -> default
  in
  {
    churn_mc = mc;
    churn_members = members;
    churn_moves = int_opt "moves" 0;
    (* Defaults are round-denominated so one script fits every regime. *)
    churn_period = time_opt "period" (1.0, true);
    churn_start = time_opt "start" (0.0, false);
    churn_waves = int_opt "waves" 0;
    churn_wave_links = int_opt "wave-links" 1;
    churn_wave_period = Option.map (parse_time lineno) (opt_value opts "wave-period");
    churn_seed = int_opt "seed" 1;
  }

let churn_spec ~round d =
  let resolve = seconds ~round in
  let period = resolve d.churn_period in
  {
    Churn.mc = d.churn_mc;
    members = d.churn_members;
    moves = d.churn_moves;
    period;
    start = resolve d.churn_start;
    waves = d.churn_waves;
    wave_links = d.churn_wave_links;
    wave_period =
      (match d.churn_wave_period with Some wp -> resolve wp | None -> period);
  }

let churn_events ~graph ~round d =
  match Churn.generate (Sim.Rng.create d.churn_seed) ~graph (churn_spec ~round d) with
  | evs -> Ok evs
  | exception Invalid_argument m -> Error m

(* "health period=0.5r detector=k:3 damp-suppress=2" — link-health
   layer configuration; time-valued options take the same second/round
   literals as [at].  Resolution to a [Health.Config.t] waits until the
   graph and regime (hence round length) and the full event list (hence
   the horizon) are known. *)
type health_directive = {
  h_period : float * bool;
  h_detector : int;
  h_damp_suppress : float option;  (* [Some] exactly when damping is on *)
}

let health_allowed_keys = [ "period"; "detector"; "damp-suppress" ]

let parse_float lineno what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail lineno "%s: expected a number, got %S" what s

let parse_detector lineno s =
  match String.split_on_char ':' s with
  | [ "k"; k ] -> parse_int lineno "detector k" k
  | _ -> fail lineno "unknown detector %S (use k:<n>)" s

let parse_health lineno opts =
  check_opts lineno ~allowed:health_allowed_keys opts;
  let h_detector =
    match opt_value opts "detector" with
    | Some s -> parse_detector lineno s
    | None -> 3
  in
  let h_period =
    match opt_value opts "period" with
    | Some s -> parse_time lineno s
    | None -> (0.5, true) (* half a protocol round *)
  in
  {
    h_period;
    h_detector;
    h_damp_suppress =
      Option.map
        (parse_float lineno "damp-suppress")
        (opt_value opts "damp-suppress");
  }

(* Resolve round-denominated times, then validate: an invalid value is
   a located error here rather than a crash in Protocol.create.  The
   damper's penalty, reuse threshold and half-life are constants. *)
let health_config ~round ~last_event d =
  let damping =
    Option.map
      (fun suppress ->
        {
          Health.Damping.penalty = 1.0;
          suppress;
          reuse = 0.75;
          half_life = 4.0 *. round;
        })
      d.h_damp_suppress
  in
  let partial =
    Health.Config.make ~period:(seconds ~round d.h_period)
      ~detector:d.h_detector ?damping ~horizon:1.0 ()
  in
  (* Past the last scripted event by three detection bounds plus
     convergence slack: enough for the slowest discovery (down, or up
     through reup hellos), then quiescence. *)
  let horizon =
    last_event +. (3.0 *. Health.Config.detect_bound partial) +. (10.0 *. round)
  in
  let hc = { partial with Health.Config.horizon } in
  Result.map (fun () -> hc) (Health.Config.validate hc)

let last_event_time events =
  List.fold_left (fun acc (e : Events.t) -> Float.max acc e.time) 0.0 events

let health_of_spec ~graph ~config ~events spec =
  match parse_health 0 (List.concat_map tokens (String.split_on_char ',' spec)) with
  | exception Parse_error (_, m) -> Error m
  | d ->
    health_config
      ~round:(Dgmc.Config.round_length config ~graph)
      ~last_event:(last_event_time events) d

(* "faults drop=0.3 dup=0.1 seed=7" — fault keys go to Faults.Plan's
   parser; [seed] is handled here. *)
let parse_faults lineno args =
  let seeds, fault_args =
    List.partition (String.starts_with ~prefix:"seed=") args
  in
  let seed =
    List.fold_left
      (fun _ tok -> parse_int lineno "seed" (String.sub tok 5 (String.length tok - 5)))
      1 seeds
  in
  match Faults.Plan.spec_of_string (String.concat "," fault_args) with
  | Ok spec -> (spec, seed)
  | Error m -> fail lineno "%s" m

type directive =
  | Graph of Net.Graph.t
  | Config of Dgmc.Config.t
  | Faults of Faults.Plan.spec * int
  | Mc of Dgmc.Mc_id.t
  | At of (float * bool) * Events.action
  | Churn of churn_directive
  | Health of health_directive

(* [mcs]: the MCs declared on earlier lines, which [mc=] resolves
   against. *)
let parse_directive lineno mcs verb args =
  match (verb, args) with
  | "graph", args -> Graph (parse_graph lineno args)
  | "config", args -> Config (parse_config lineno args)
  | "faults", args ->
    let spec, seed = parse_faults lineno args in
    Faults (spec, seed)
  | "mc", [ id; kind ] ->
    let id = parse_int lineno "mc id" id in
    if List.exists (fun (m : Dgmc.Mc_id.t) -> m.id = id) mcs then
      fail lineno "mc %d declared twice" id;
    (match Dgmc.Mc_id.kind_of_string kind with
    | Some k -> Mc (Dgmc.Mc_id.make k id)
    | None -> fail lineno "unknown MC type %S" kind)
  | "mc", _ -> fail lineno "mc: expected 'mc <id> <type>'"
  | "at", [] -> fail lineno "at: missing time and event"
  | "at", time :: action ->
    let time = parse_time lineno time in
    At (time, parse_action lineno mcs action)
  | "churn", opts -> Churn (parse_churn lineno mcs opts)
  | "health", opts -> Health (parse_health lineno opts)
  | verb, _ -> fail lineno "unknown directive %S" verb

let directives text =
  let mcs = ref [] in
  String.split_on_char '\n' text
  |> List.mapi (fun i raw ->
         let lineno = i + 1 in
         let line =
           match String.index_opt raw '#' with
           | Some j -> String.sub raw 0 j
           | None -> raw
         in
         match tokens line with
         | [] -> None
         | verb :: args ->
           let parsed =
             match parse_directive lineno !mcs verb args with
             | Mc m as d ->
               mcs := m :: !mcs;
               Ok d
             | d -> Ok d
             | exception Parse_error (_, m) -> Error m
           in
           Some (lineno, parsed))
  |> List.filter_map Fun.id

type severity = Error | Warning

type diagnostic = { line : int; severity : severity; message : string }

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

let count severity diags =
  List.length (List.filter (fun d -> d.severity = severity) diags)

let errors = count Error

let warnings = count Warning

(* The one resolution pass: every diagnostic, sorted by line, and the
   runnable script when none of them is an error. *)
let resolve text =
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
  let faults = ref None in (* (spec, seed) *)
  let mcs = ref [] in (* (decl line, mc) — reversed *)
  let used = ref [] in (* mc ids referenced by some event *)
  let events = ref [] in (* (line, (time, rounds?), action) — reversed *)
  let churns = ref [] in (* (line, churn_directive) — reversed *)
  let health_decl = ref None in (* (line, health_directive) *)
  (* ---- what each line says ---- *)
  List.iter
    (fun (line, parsed) ->
      match parsed with
      | Stdlib.Error m ->
        malformed := true;
        err line "%s" m
      | Ok (Graph g) ->
        if Option.is_some !graph then
          warn line "duplicate 'graph' directive overrides the previous one";
        graph := Some g
      | Ok (Config c) ->
        if Option.is_some !config then
          warn line "duplicate 'config' directive overrides the previous one";
        config := Some c
      | Ok (Faults (spec, seed)) ->
        if Option.is_some !faults then
          warn line "duplicate 'faults' directive overrides the previous one";
        faults := Some (spec, seed);
        if Faults.Plan.spec_is_transparent spec then
          warn line
            "fault plan injects nothing (all probabilities and delays are \
             zero)"
      | Ok (Mc m) -> mcs := (line, m) :: !mcs
      | Ok (At (time, action)) ->
        (match action with
        | Events.Join { mc; _ } | Events.Leave { mc; _ } ->
          used := mc.id :: !used
        | Events.Link_down _ | Events.Link_up _ -> ());
        events := (line, time, action) :: !events
      | Ok (Churn d) ->
        used := d.churn_mc.id :: !used;
        churns := (line, d) :: !churns
      | Ok (Health d) ->
        if Option.is_some !health_decl then
          warn line "duplicate 'health' directive overrides the previous one";
        health_decl := Some (line, d))
    (directives text);
  (* ---- the timeline they resolve to ---- *)
  let script =
    match !graph with
    | None ->
      (* A malformed line may be the missing graph; it is reported. *)
      if not !malformed then err 0 "missing 'graph' directive";
      None
    | Some g ->
      let config = Option.value !config ~default:Dgmc.Config.atm_lan in
      let round = Dgmc.Config.round_length config ~graph:g in
      (* Event targets need the final graph, so they are checked here. *)
      let scripted =
        List.filter_map
          (fun (line, time, action) ->
            match check_target g action with
            | Ok () -> Some (line, seconds ~round time, action)
            | Stdlib.Error m ->
              err line "%s" m;
              None)
          (List.rev !events)
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
           None scripted);
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
      dup_scan scripted;
      (* Churn expands deterministically, after the scripted events;
         its events join the replay, so scripted events are checked
         against churn-held state. *)
      let churned =
        List.concat_map
          (fun (line, d) ->
            match churn_events ~graph:g ~round d with
            | Ok evs ->
              List.map (fun (e : Events.t) -> (line, e.time, e.action)) evs
            | Stdlib.Error m ->
              err line "%s" m;
              [])
          (List.rev !churns)
      in
      (* Time order, stable on ties, as Events.sort. *)
      let timeline =
        List.stable_sort
          (fun (_, t1, _) (_, t2, _) -> Float.compare t1 t2)
          (scripted @ churned)
      in
      ignore
        (List.fold_left
           (fun shape (line, _, action) ->
             let shape, misstep = Events.step shape action in
             (match (misstep, action) with
             | Some Events.Leave_of_non_member, Events.Leave { switch; mc } ->
               err line
                 "leave without a preceding join (switch %d is not a member \
                  of mc %d at this time)"
                 switch mc.id
             | Some Events.Already_down, Events.Link_down (u, v) ->
               warn line "link (%d, %d) is already down" u v
             | Some Events.Already_up, Events.Link_up (u, v) ->
               warn line "link (%d, %d) is already up" u v
             | _ -> ());
             shape)
           Events.empty_shape timeline);
      let events =
        List.map (fun (_, time, action) -> { Events.time; action }) timeline
      in
      let health =
        Option.bind !health_decl (fun (line, d) ->
            let hc =
              match
                health_config ~round ~last_event:(last_event_time events) d
              with
              | Ok hc -> Some hc
              | Stdlib.Error m ->
                err line "%s" m;
                None
            in
            if
              not
                (List.exists
                   (fun (e : Events.t) ->
                     match e.action with
                     | Events.Link_down _ | Events.Link_up _ -> true
                     | Events.Join _ | Events.Leave _ -> false)
                   events)
            then
              warn line
                "health directive but no scripted link events: the \
                 detectors have nothing to discover";
            hc)
      in
      Some
        {
          graph = g;
          config;
          mcs = List.rev_map snd !mcs;
          events;
          faults = Option.map fst !faults;
          fault_seed = Option.fold ~none:1 ~some:snd !faults;
          health;
        }
  in
  List.iter
    (fun (line, (m : Dgmc.Mc_id.t)) ->
      if not (List.mem m.id !used) then
        warn line "mc %d declared but never used by any event" m.id)
    (List.rev !mcs);
  let diags =
    List.stable_sort (fun a b -> Int.compare a.line b.line) (List.rev !diags)
  in
  (diags, if errors diags = 0 then script else None)

let lint text = fst (resolve text)

let parse text =
  match resolve text with
  | _, Some t -> Ok t
  | diags, None ->
    let d = List.find (fun d -> d.severity = Error) diags in
    Stdlib.Error
      (if d.line = 0 then d.message
       else Printf.sprintf "line %d: %s" d.line d.message)

let render ~file d =
  let prefix =
    match d.line with 0 -> file ^ ": " | l -> Printf.sprintf "%s:%d: " file l
  in
  Printf.sprintf "%s%s: %s" prefix
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.message

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error e -> Error e

let load path = Result.bind (read_file path) parse

let build ?trace ?metrics t =
  (* A scenario with faults needs reliable flooding: the lossless modes
     have no recovery from an injected drop, and the run would diverge
     for reasons that say nothing about the protocol. *)
  let config, faults =
    match t.faults with
    | None -> (t.config, None)
    | Some spec ->
      ( { t.config with flood_mode = Lsr.Flooding.Reliable },
        Some (Faults.Plan.create ~spec ~seed:t.fault_seed ()) )
  in
  let config =
    match t.health with
    | None -> config
    | Some hc -> { config with Dgmc.Config.health = Some hc }
  in
  let net = Dgmc.Protocol.create ~graph:t.graph ~config ?faults ?trace ?metrics ()
  in
  Events.apply_dgmc net t.events;
  net

