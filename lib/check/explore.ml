type scenario = {
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  setup : Harness.event list;
  race : Harness.event list;
}

type found = {
  laws : string list;
  message : string;
  trace : string list;
  depth : int;
  state_digest : string;
}

type outcome = {
  states : int;
  transitions : int;
  terminals : int;
  other_violations : int;
  complete : bool;
  found : found option;
}

(* The state every walk starts from: the setup injected and settled,
   then the race injected.  A base is only read and copied, but the
   copies share its graphs' lazy caches, so each domain builds its
   own. *)
let base scenario =
  let h = Harness.create ~graph:scenario.graph ~config:scenario.config () in
  List.iter (Harness.inject h) scenario.setup;
  Harness.settle h;
  List.iter (Harness.inject h) scenario.race;
  h

(* A prefix replayed on a copy of [base]: the harness is deterministic
   for a fixed action sequence, and a copy acts as the state it
   copies. *)
let rebuild base prefix =
  let h = Harness.copy base in
  List.iter (Harness.apply h) prefix;
  h

(* The rendered trace of [prefix], by one more replay: each action is
   described in the state it applies to.  Only a reported state needs
   it. *)
let render scenario prefix =
  let h = base scenario in
  List.map
    (fun a ->
      let d = Harness.describe h a in
      Harness.apply h a;
      d)
    prefix

let check_state h =
  Array.to_list (Harness.switches h)
  |> List.concat_map (fun sw -> Invariant.check_switch ~id:(Dgmc.Switch.id sw) sw)

(* Apply [act] and check the per-edge laws: the per-state catalogue on
   the successor plus C-monotonicity of every switch across the action. *)
let step h act =
  let before = Array.map Invariant.installed_stamps (Harness.switches h) in
  Harness.apply h act;
  let monotone =
    Array.to_list
      (Array.mapi
         (fun i sw -> Invariant.check_monotone ~id:i ~before:before.(i) sw)
         (Harness.switches h))
    |> List.concat
  in
  check_state h @ monotone

let check_terminal h =
  Dgmc.Terminal.check ~graph:(Harness.graph h) ~truth:(Harness.truth h)
    (Harness.switches h)

(* A reached state, computed inside a (possibly parallel) expansion
   task: everything the sequential merge needs to dedup, report or
   queue it.  [violations] are the edge's laws or, when those hold and
   nothing is enabled, the terminal laws ([terminal] then says which). *)
type reached = {
  prefix : Harness.action list;
  digest : string;
  key : int list * string;
  enabled : Harness.action list;
  violations : Invariant.violation list;
  terminal : bool;
}

let reach ~order h ~digest ~prefix viols =
  let enabled = Harness.enabled h in
  let terminal_viols =
    if enabled = [] && viols = [] then check_terminal h else []
  in
  {
    prefix;
    digest;
    key = order ~depth:(List.length prefix) ~digest h;
    enabled;
    violations = viols @ terminal_viols;
    terminal = terminal_viols <> [];
  }

(* The popped state is rebuilt once from [base], and each action applies
   to its own copy of it.  A clean edge into a state admitted before
   this wave is [None]: that state's laws held when it was admitted, so
   only the transition counts.  [seen] is only read while a wave's tasks
   run. *)
let expand ~order ~seen base (prefix, acts) =
  let parent = rebuild base prefix in
  List.map
    (fun act ->
      let h = Harness.copy parent in
      let viols = step h act in
      let digest = Harness.digest h in
      if viols = [] && Hashtbl.mem seen digest then None
      else Some (reach ~order h ~digest ~prefix:(prefix @ [ act ]) viols))
    acts

let found_of scenario r viols =
  let trace =
    match r.prefix with
    | [] -> [ "(initial state, before any race delivery)" ]
    | prefix -> render scenario prefix
  in
  {
    laws =
      List.sort_uniq String.compare
        (List.map (fun (v : Invariant.violation) -> v.law) viols);
    message = String.concat "\n" (List.map Dgmc.Terminal.to_string viols);
    trace = (if r.terminal then trace @ [ "(terminal state)" ] else trace);
    depth = List.length r.prefix;
    state_digest = r.digest;
  }

(* Frontier keys: the caller's priority ints, then its tie string, then
   the admission number (the state count), so equal keys pop first-in
   first-out. *)
module Frontier = Map.Make (struct
  type t = int list * string * int

  let compare (p1, t1, n1) (p2, t2, n2) =
    let c = List.compare Int.compare p1 p2 in
    if c <> 0 then c
    else
      let c = String.compare t1 t2 in
      if c <> 0 then c else Int.compare n1 n2
end)

(* The wave width is a fixed property of the algorithm, NOT of the
   domain count: every run — sequential or parallel — pops the same
   wave_size best frontier entries, expands them as independent pure
   tasks, and merges the results in wave order.  That is what makes the
   outcome byte-identical at any [domains]. *)
let wave_size = 8

(* The base of the scenario this domain last expanded for: built on the
   domain's first task and reused by its later ones, so the calling
   domain settles the setup once per walk and a spawned worker once per
   wave.  A base never crosses domains (see [base]). *)
let domain_base = Domain.DLS.new_key (fun () -> None)

let base_here scenario =
  match Domain.DLS.get domain_base with
  | Some (s, b) when s == scenario -> b
  | Some _ | None ->
    let b = base scenario in
    Domain.DLS.set domain_base (Some (scenario, b));
    b

(* No partial-order reduction here, deliberately.  The tempting
   persistent set — all enabled actions of one switch d — is unsound in
   this system: a Complete at another switch can flood a FRESH message
   to d whose delivery is immediately enabled and dependent (same
   mailbox) with d's currently-enabled deliveries, so the orderings
   where it arrives at d first would never be explored, and terminal
   states differing only in which proposal a switch last installed (its
   C stamp) would be silently lost.  Exhaustiveness over the deduped
   state graph is the whole point of this checker; the per-state cost
   is kept down instead: one settled base per domain, and a copy of it
   per popped state and per successor. *)
let walk ~hit ~order ~max_states ~max_depth ?domains scenario =
  let seen = Hashtbl.create 4096 in
  let states = ref 0 in
  let transitions = ref 0 in
  let terminals = ref 0 in
  let others = ref 0 in
  let truncated = ref false in
  let found = ref None in
  let frontier = ref Frontier.empty in
  (* A hit stops the walk; any other violation is counted and not
     expanded; a clean state is deduped, counted and classified. *)
  let merge r =
    match List.filter hit r.violations with
    | _ :: _ as hits -> found := Some (found_of scenario r hits)
    | [] when r.violations <> [] -> incr others
    | [] ->
      if not (Hashtbl.mem seen r.digest) then begin
        Hashtbl.add seen r.digest ();
        incr states;
        if !states > max_states then truncated := true
        else if r.enabled = [] then incr terminals
        else if List.length r.prefix >= max_depth then truncated := true
        else
          let prio, tie = r.key in
          frontier :=
            Frontier.add (prio, tie, !states) (r.prefix, r.enabled) !frontier
      end
  in
  let h0 = base scenario in
  merge
    (reach ~order h0 ~digest:(Harness.digest h0) ~prefix:[] (check_state h0));
  let rec loop () =
    if !found = None && not (Frontier.is_empty !frontier) then begin
      (* Pop the best wave_size entries... *)
      let wave = ref [] in
      for _ = 1 to wave_size do
        match Frontier.min_binding_opt !frontier with
        | None -> ()
        | Some (k, entry) ->
          frontier := Frontier.remove k !frontier;
          wave := entry :: !wave
      done;
      (* ... expand them as pure tasks (a copy of the domain's base
         replayed to the popped state, then a copy per action), and
         merge sequentially in wave order: the first hit in (wave,
         enabled) order wins regardless of which domain computed it. *)
      List.iter
        (List.iter (fun r ->
             if !found = None then begin
               incr transitions;
               Option.iter merge r
             end))
        (Runner.Pool.map ?domains
           (fun entry -> expand ~order ~seen (base_here scenario) entry)
           (List.rev !wave));
      loop ()
    end
  in
  loop ();
  Domain.DLS.set domain_base None;
  {
    states = !states;
    transitions = !transitions;
    terminals = !terminals;
    other_violations = !others;
    complete = !found = None && (not !truncated) && !others = 0;
    found = !found;
  }

let pp_found ppf f =
  Format.fprintf ppf "@[<v>VIOLATION (depth %d): %s@,state digest %s@,%s@,"
    f.depth
    (String.concat ", " f.laws)
    (Digest.to_hex f.state_digest)
    f.message;
  Format.fprintf ppf "trace (%d steps):@," (List.length f.trace);
  List.iteri (fun i d -> Format.fprintf ppf "  %2d. %s@," (i + 1) d) f.trace;
  Format.fprintf ppf "@]"

let pp_outcome ppf o =
  Format.fprintf ppf "%d states, %d transitions, %d terminal states%s"
    o.states o.transitions o.terminals
    (if o.complete then " (exhaustive)" else " (bounded)");
  if o.other_violations > 0 then
    Format.fprintf ppf "; %d off-target violating state(s) not expanded"
      o.other_violations;
  match o.found with
  | None -> Format.fprintf ppf "; no matching invariant violation"
  | Some f -> Format.fprintf ppf "@.%a" pp_found f
