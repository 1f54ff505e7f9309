type scenario = {
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  setup : Harness.event list;
  race : Harness.event list;
}

type violation = { message : string; trace : string list }

type outcome = {
  states : int;
  transitions : int;
  terminals : int;
  complete : bool;
  violation : violation option;
}

(* Rebuild the state reached by [prefix]: the harness is deterministic
   for a fixed action sequence, so replay substitutes for cloning.
   Returns the live harness and the rendered action descriptions. *)
let build scenario prefix =
  let h = Harness.create ~graph:scenario.graph ~config:scenario.config () in
  List.iter (Harness.inject h) scenario.setup;
  Harness.settle h;
  List.iter (Harness.inject h) scenario.race;
  let descs =
    List.map
      (fun a ->
        let d = Harness.describe h a in
        Harness.apply h a;
        d)
      prefix
  in
  (h, descs)

let check_state h =
  let base =
    Array.to_list (Harness.switches h)
    |> List.concat_map (fun sw ->
           Invariant.check_switch ~id:(Dgmc.Switch.id sw) sw)
  in
  match Harness.health_detect_rounds h with
  | None -> base
  | Some detect_rounds ->
    base
    @ Invariant.check_health_state ~detect_rounds
        ~spurious:(Harness.health_spurious h)
        (Harness.health_adjacencies h)

let step h act =
  let before = Array.map Invariant.installed_stamps (Harness.switches h) in
  let desc = Harness.describe h act in
  Harness.apply h act;
  let monotone =
    Array.to_list
      (Array.mapi
         (fun i sw -> Invariant.check_monotone ~id:i ~before:before.(i) sw)
         (Harness.switches h))
    |> List.concat
  in
  (desc, check_state h @ monotone)

let check_terminal h =
  Dgmc.Terminal.check ~graph:(Harness.graph h) ~truth:(Harness.truth h)
    (Harness.switches h)
  @ Invariant.check_health_terminal ~suppressed:(Harness.suppressed_links h)
      (Harness.switches h)

(* No partial-order reduction here, deliberately.  The tempting
   persistent set — all enabled actions of one switch d — is unsound in
   this system: a Complete at another switch can flood a FRESH message
   to d whose delivery is immediately enabled and dependent (same
   mailbox) with d's currently-enabled deliveries, so the orderings
   where it arrives at d first would never be explored, and terminal
   states differing only in which proposal a switch last installed (its
   C stamp) would be silently lost.  Exhaustiveness over the deduped
   state graph is the whole point of this checker; the per-edge replay
   is kept cheap instead (see Harness.first_enabled). *)
let run ?(max_states = 200_000) ?(max_depth = 10_000) scenario =
  let seen = Hashtbl.create 4096 in
  let states = ref 0 in
  let transitions = ref 0 in
  let terminals = ref 0 in
  let truncated = ref false in
  let violation = ref None in
  let queue = Queue.create () in
  let report descs viols =
    violation :=
      Some
        {
          message = String.concat "\n" (List.map Dgmc.Terminal.to_string viols);
          trace = descs;
        }
  in
  (* A freshly materialised state: dedup, check, classify. *)
  let examine h prefix descs =
    let d = Harness.digest h in
    if not (Hashtbl.mem seen d) then begin
      Hashtbl.add seen d ();
      incr states;
      if !states > max_states then truncated := true
      else
        match Harness.enabled h with
        | [] ->
          let tv = check_terminal h in
          if tv <> [] then report (descs @ [ "(terminal state)" ]) tv
          else incr terminals
        | acts ->
          if List.length prefix >= max_depth then truncated := true
          else Queue.add (prefix, acts) queue
    end
  in
  let h0, _ = build scenario [] in
  (match check_state h0 with
  | [] -> examine h0 [] []
  | viols -> report [ "(initial state, before any race delivery)" ] viols);
  let rec loop () =
    if !violation = None then
      match Queue.take_opt queue with
      | None -> ()
      | Some (prefix, acts) ->
        List.iter
          (fun act ->
            if !violation = None then begin
              incr transitions;
              let h, descs = build scenario prefix in
              let desc, viols = step h act in
              let descs = descs @ [ desc ] in
              if viols <> [] then report descs viols
              else examine h (prefix @ [ act ]) descs
            end)
          acts;
        loop ()
  in
  loop ();
  {
    states = !states;
    transitions = !transitions;
    terminals = !terminals;
    complete = !violation = None && not !truncated;
    violation = !violation;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "%d states, %d transitions, %d terminal states%s"
    o.states o.transitions o.terminals
    (if o.complete then " (exhaustive)" else " (bounded)");
  match o.violation with
  | None -> Format.fprintf ppf "; no invariant violations"
  | Some v ->
    Format.fprintf ppf "@.VIOLATION: %s@.trace (%d steps):@." v.message
      (List.length v.trace);
    List.iteri (fun i d -> Format.fprintf ppf "  %2d. %s@." (i + 1) d) v.trace
