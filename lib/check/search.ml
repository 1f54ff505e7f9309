(* Guided forward/backward fault-scenario search (ROADMAP: Helmy–Estrin
   style systematic testing).  Forward mode is Explore's walk in a
   best-first order with a target; backward mode enumerates fault
   sequences shortest-first and forward-checks each, so the first hit is
   a minimal repro. *)

(* ------------------------------------------------------------------ *)
(* Targets *)

type target = { law : string; kind : Dgmc.Mc_id.kind option }

let any = { law = "any"; kind = None }

let target_of_string s =
  match String.index_opt s '@' with
  | None -> Ok { law = s; kind = None }
  | Some i -> (
    let law = String.sub s 0 i in
    let kind_s = String.sub s (i + 1) (String.length s - i - 1) in
    match Dgmc.Mc_id.kind_of_string kind_s with
    | Some k -> Ok { law; kind = Some k }
    | None ->
      Error
        (Printf.sprintf
           "unknown MC kind %S in target (expected symmetric, \
            receiver-only or asymmetric)"
           kind_s))

let kind_equal a b =
  match ((a : Dgmc.Mc_id.kind), (b : Dgmc.Mc_id.kind)) with
  | Symmetric, Symmetric | Receiver_only, Receiver_only
  | Asymmetric, Asymmetric ->
    true
  | (Symmetric | Receiver_only | Asymmetric), _ -> false

(* A target law is matched by prefix, so "agreement" covers both
   agreement-members and agreement-topology. *)
let matches target (v : Invariant.violation) =
  (String.equal target.law "any"
  || String.starts_with ~prefix:target.law v.law)
  &&
  match (target.kind, v.mc) with
  | None, _ -> true
  | Some _, None -> false
  | Some k, Some mc -> kind_equal k mc.Dgmc.Mc_id.kind

(* ------------------------------------------------------------------ *)
(* Forward search: the violation-distance heuristic *)

type score = {
  bound : int;
      (* Harness.pending_count: admissible-consistent lower bound on the
         actions left to any terminal state (each action retires exactly
         one pending item). *)
  discord : int;
      (* Per MC, the number of distinct (member list, installed
         topology) fingerprint classes across the switches holding
         state, minus one — summed.  0 means installed-state
         agreement. *)
  resync_depth : int;
      (* Crash-recovery resynchronisation sessions in flight. *)
}

let score h =
  let bound = Harness.pending_count h in
  let pairs = ref [] in
  let resync_depth = ref 0 in
  Array.iter
    (fun sw ->
      List.iter
        (fun (s : Dgmc.Switch.mc_snapshot) ->
          pairs :=
            ( Fingerprint.mc_id s.snap_mc,
              Fingerprint.members s.snap_members
              ^ "/"
              ^ Mctree.Tree.fingerprint s.snap_topology )
            :: !pairs)
        (Dgmc.Switch.snapshots sw);
      if Option.is_some (Dgmc.Switch.resync_state sw) then incr resync_depth)
    (Harness.switches h);
  let sorted =
    List.sort_uniq
      (fun (m1, f1) (m2, f2) ->
        let c = String.compare m1 m2 in
        if c <> 0 then c else String.compare f1 f2)
      !pairs
  in
  (* Distinct (mc, fingerprint) pairs minus distinct mcs = sum over MCs
     of (classes - 1). *)
  let mcs =
    List.sort_uniq String.compare (List.map (fun (m, _) -> m) sorted)
  in
  {
    bound;
    discord = List.length sorted - List.length mcs;
    resync_depth = !resync_depth;
  }

(* Pop order: [bound] ascending is the admissible primary key (closest
   to a checkable terminal first); the divergence evidence — discord,
   then resync depth — breaks ties descending (most evidence first);
   depth then digest make the order total and deterministic. *)
let heuristic ~depth ~digest h =
  let s = score h in
  ([ s.bound; -s.discord; -s.resync_depth; depth ], digest)

let forward ?(target = any) ?(max_states = 50_000) ?(max_depth = 10_000)
    ?domains scenario =
  Explore.walk ~hit:(matches target) ~order:heuristic ~max_states ~max_depth
    ?domains scenario

(* ------------------------------------------------------------------ *)
(* Backward search: minimal fault sequences *)

type backward_outcome = {
  b_candidates : int;  (* Well-formed healed sequences evaluated. *)
  b_max_len : int;
  b_truncated : bool;  (* Candidate budget hit before exhaustion. *)
  b_found : (Harness.event list * Explore.found) option;
      (* Shortest reproducing fault sequence, first in enumeration
         order among those of its length. *)
}

(* Well-formedness state threaded through candidate enumeration: only
   sequences an operator could actually inject are generated (leave
   after join, recover after crash, link-up after link-down), and only
   sequences that END healed are evaluated — the terminal laws demand
   agreement, which is only fair once every fault is lifted.  A durable
   partition is expressed as the set of link-downs that cut it.  Members
   and down links are the workload's shape (Workload.Events.step); only
   crashes are the harness's own. *)
type wstate = { shape : Workload.Events.shape; crashed : int list }

let apply_event st (ev : Harness.event) =
  match ev with
  | Harness.Action a -> { st with shape = fst (Workload.Events.step st.shape a) }
  | Harness.Crash i -> { st with crashed = i :: st.crashed }
  | Harness.Recover i ->
    { st with crashed = List.filter (fun j -> j <> i) st.crashed }

let roles_for = function
  | Dgmc.Mc_id.Symmetric -> [ Dgmc.Member.Both ]
  | Dgmc.Mc_id.Receiver_only -> [ Dgmc.Member.Receiver ]
  | Dgmc.Mc_id.Asymmetric -> [ Dgmc.Member.Sender; Dgmc.Member.Receiver ]

(* The event alphabet at a well-formedness state, in the fixed order
   that defines which minimal counterexample is reported: membership
   events first (most protocol-relevant), then link faults, then
   crash/recover. *)
let successors ~graph ~mcs st =
  let n = Net.Graph.n_nodes graph in
  let joins =
    List.concat_map
      (fun (mc : Dgmc.Mc_id.t) ->
        let members = Workload.Events.members st.shape mc in
        List.concat_map
          (fun switch ->
            if List.mem switch members then []
            else
              List.map
                (fun role -> Harness.Action (Join { switch; mc; role }))
                (roles_for mc.kind))
          (List.init n Fun.id))
      mcs
  in
  let leaves =
    List.concat_map
      (fun mc ->
        List.map
          (fun switch -> Harness.Action (Leave { switch; mc }))
          (Workload.Events.members st.shape mc))
      mcs
  in
  let edges =
    List.sort
      (fun (e1 : Net.Graph.edge) (e2 : Net.Graph.edge) ->
        let c = Int.compare e1.u e2.u in
        if c <> 0 then c else Int.compare e1.v e2.v)
      (Net.Graph.edges graph)
  in
  let downs, ups =
    List.partition_map
      (fun (e : Net.Graph.edge) ->
        if Workload.Events.is_down st.shape e.u e.v then
          Right (Harness.Action (Link_up (e.u, e.v)))
        else Left (Harness.Action (Link_down (e.u, e.v))))
      edges
  in
  let crashes, recovers =
    List.partition_map
      (fun i ->
        if List.mem i st.crashed then Right (Harness.Recover i)
        else Left (Harness.Crash i))
      (List.init n Fun.id)
  in
  joins @ leaves @ downs @ ups @ crashes @ recovers

(* Steps still owed before the sequence can end healed: each downed
   link needs its link-up, each crashed switch its recover. *)
let heal_debt st =
  Workload.Events.down_count st.shape + List.length st.crashed

let initial_wstate setup =
  List.fold_left apply_event
    { shape = Workload.Events.empty_shape; crashed = [] }
    setup

(* All well-formed, healed-at-the-end candidate sequences of exactly
   [len] events, in lexicographic successor order, capped at [budget]
   (returns them reversed-appended; the caller re-reverses). *)
let candidates_of_length ~graph ~mcs ~setup ~budget len =
  let out = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  let rec go acc_rev st remaining =
    if !truncated then ()
    else if remaining = 0 then begin
      if heal_debt st = 0 then
        if !count >= budget then truncated := true
        else begin
          incr count;
          out := List.rev acc_rev :: !out
        end
    end
    else if heal_debt st > remaining then ()
    else
      List.iter
        (fun ev -> go (ev :: acc_rev) (apply_event st ev) (remaining - 1))
        (successors ~graph ~mcs st)
  in
  go [] (initial_wstate setup) len;
  (List.rev !out, !truncated)

(* Candidate evaluation must be a pure function of the candidate, so
   the chunked parallel dispatch below is deterministic; the inner
   forward search therefore always runs sequentially. *)
let eval_candidate ~target ~per_candidate_states ~graph ~config ~setup race =
  (forward ~target ~max_states:per_candidate_states ~domains:1
     { Explore.graph; config; setup; race })
    .found

let chunk_size = 16

(* Total candidates one backward search may enumerate. *)
let max_candidates = 50_000

let rec chunks k = function
  | [] -> []
  | xs ->
    let rec take n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (n - 1) (x :: acc) rest
    in
    let c, rest = take k [] xs in
    c :: chunks k rest

let backward ?(target = any) ?(max_len = 4) ?(per_candidate_states = 20_000)
    ?domains ~graph ~config
    ?(setup = ([] : Harness.event list)) ~mcs () =
  let evaluated = ref 0 in
  let truncated = ref false in
  let found = ref None in
  let len = ref 1 in
  while !found = None && !len <= max_len && not !truncated do
    let cands, cut =
      candidates_of_length ~graph ~mcs ~setup
        ~budget:(max 0 (max_candidates - !evaluated))
        !len
    in
    if cut then truncated := true;
    (* Fixed-size chunks, evaluated in enumeration order; within a
       chunk every candidate is checked (in parallel), but the first
       failing one in chunk order is the one reported — identical at
       any domain count. *)
    List.iter
      (fun chunk ->
        if !found = None then begin
          let results =
            Runner.Pool.map ?domains
              (eval_candidate ~target ~per_candidate_states ~graph ~config
                 ~setup)
              chunk
          in
          evaluated := !evaluated + List.length chunk;
          List.iter2
            (fun cand result ->
              match (!found, result) with
              | None, Some f -> found := Some (cand, f)
              | _, _ -> ())
            chunk results
        end)
      (chunks chunk_size cands);
    incr len
  done;
  {
    b_candidates = !evaluated;
    b_max_len = max_len;
    b_truncated = !truncated;
    b_found = !found;
  }

(* ------------------------------------------------------------------ *)
(* Event rendering and parsing *)

(* One line per fault event in Check.Fuzz's shrunk-workload format
   (Workload.Events.pp), with the sequence index as the time: the
   harness is untimed — the explored interleavings are the timing — so
   the tick is placement, not seconds.  crash/recover extend the
   fuzzer's vocabulary. *)
let event_line i (ev : Harness.event) =
  match ev with
  | Harness.Action action ->
    Format.asprintf "%a" Workload.Events.pp { time = float_of_int i; action }
  | Harness.Crash s -> Printf.sprintf "[%d] crash switch=%d" i s
  | Harness.Recover s -> Printf.sprintf "[%d] recover switch=%d" i s

(* A semicolon-separated event list: the script's event syntax
   (Workload.Script.action_of_string) plus the harness-only verbs. *)
let event_of_string ~mcs part =
  let at_switch tok event =
    match int_of_string_opt tok with
    | Some s -> Ok (event s)
    | None -> Error (Printf.sprintf "switch: expected an integer, got %S" tok)
  in
  match String.split_on_char ' ' part |> List.filter (fun t -> t <> "") with
  | [ "crash"; sw ] -> at_switch sw (fun s -> Harness.Crash s)
  | [ "recover"; sw ] -> at_switch sw (fun s -> Harness.Recover s)
  | _ ->
    Result.map
      (fun a -> Harness.Action a)
      (Workload.Script.action_of_string ~mcs part)

let events_of_string ~mcs s =
  String.split_on_char ';' s
  |> List.map String.trim
  |> List.filter (fun p -> p <> "")
  |> List.fold_left
       (fun acc part ->
         Result.bind acc (fun events ->
             Result.map (fun ev -> ev :: events) (event_of_string ~mcs part)))
       (Ok [])
  |> Result.map List.rev

let event_to_string = function
  | Harness.Action a -> Workload.Script.action_to_string a
  | Harness.Crash s -> Printf.sprintf "crash %d" s
  | Harness.Recover s -> Printf.sprintf "recover %d" s

let events_to_string events =
  String.concat "; " (List.map event_to_string events)

(* ------------------------------------------------------------------ *)
(* Reporting *)

let pp_forward ppf o = Format.fprintf ppf "forward search: %a" Explore.pp_outcome o

let pp_backward ppf o =
  Format.fprintf ppf "backward search: %d candidate sequence(s) to length %d%s"
    o.b_candidates o.b_max_len
    (if o.b_truncated then " (budget hit)" else "");
  match o.b_found with
  | None ->
    Format.fprintf ppf
      "@.no fault sequence up to length %d reproduces the target" o.b_max_len
  | Some (events, f) ->
    Format.fprintf ppf "@.minimal fault sequence (%d event(s)):@."
      (List.length events);
    List.iteri (fun i e -> Format.fprintf ppf "  %s@." (event_line i e)) events;
    Format.fprintf ppf "%a" Explore.pp_found f
