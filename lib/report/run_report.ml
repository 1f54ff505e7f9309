(* The one reader of dgmc-trace/1 captures.

   Every view of a trace is built here, as a string: the markdown/JSON
   run report with its reconfiguration SLIs, and the analyzer modes —
   summary, per-MC convergence, divergence, causal chain.  The
   dgmc_report binary only picks the mode, the exit code and where the
   text goes. *)

(* ------------------------------------------------------------------ *)
(* Shared trace helpers *)

let load path =
  Result.map_error (fun msg -> path ^ ": " ^ msg) (Sim.Trace.read_jsonl ~path)

let span entries =
  match entries with
  | [] -> (0.0, 0.0)
  | (first : Sim.Trace.entry) :: _ ->
    ( first.time,
      List.fold_left
        (fun m (e : Sim.Trace.entry) -> Float.max m e.time)
        first.time entries )

(* Occurrences of each key [key_of] finds, sorted by [cmp]. *)
let tally cmp key_of entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match key_of e with
      | None -> ()
      | Some k ->
        Hashtbl.replace tbl k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    entries;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let category_counts entries =
  tally String.compare
    (fun (e : Sim.Trace.entry) -> Some (Sim.Trace.category e.event))
    entries

let dropped_note (a : Sim.Trace.archive) =
  Printf.sprintf
    "%d event(s) were evicted from the trace ring buffer; counts and \
     episodes below understate the run (raise the trace cap)"
    a.a_dropped

(* One topology install.  The view — member list and tree — is what
   agreement between switches is defined over. *)
type install = { i_entry : Sim.Trace.entry; i_switch : int; i_view : string }

(* Each MC's installs in trace order, and the last install of every
   switch that installed it, by switch: the final views.  MCs by name. *)
type history = {
  h_mc : string;
  h_installs : install list;
  h_final : install list;
}

(* Cons [v] onto the list at [k]. *)
let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let histories entries =
  let by_mc = Hashtbl.create 8 in
  List.iter
    (fun (e : Sim.Trace.entry) ->
      match e.event with
      | Topology_installed { switch; mc; members; tree; _ } ->
        push by_mc mc
          { i_entry = e; i_switch = switch; i_view = members ^ " " ^ tree }
      | _ -> ())
    entries;
  Hashtbl.fold (fun mc rev acc -> (mc, List.rev rev) :: acc) by_mc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (h_mc, h_installs) ->
         let last = Hashtbl.create 8 in
         List.iter (fun i -> Hashtbl.replace last i.i_switch i) h_installs;
         let h_final =
           Hashtbl.fold (fun _ i acc -> i :: acc) last []
           |> List.sort (fun a b -> Int.compare a.i_switch b.i_switch)
         in
         { h_mc; h_installs; h_final })

let final_views h =
  List.sort_uniq String.compare (List.map (fun i -> i.i_view) h.h_final)

(* dgmc-analyze: allow float-format — human-facing analyzer text, not a
   schema; the trace itself carries exact times *)
let time_g t = Printf.sprintf "%g" t

(* ------------------------------------------------------------------ *)
(* Reconfiguration episodes (defined in the interface)

   An event is keyed (MC, x, k), so its [Compute_started] and the bare
   origination announcing it are one event.  Forwards carry only
   (origin, seq), so MC-LSA originations are indexed as they pass: a
   forward always trails its origination in emission order. *)

type episode = {
  e_mc : string;
  e_start : float;
  e_end : float;  (** The last settle, or the trace's end. *)
  e_converged : bool;
  e_events : int;
  e_installs : int;
  e_control : int;
}

(* Component [x] of a sparse stamp. *)
let component (s : Sim.Trace.stamp) x =
  let rec find i =
    if i >= Array.length s.nonzero then 0
    else if s.nonzero.(i) = x then s.nonzero.(i + 1)
    else find (i + 2)
  in
  find 0

(* One MC's episodes, in time order, from its events [(time, x, k)]
   sorted by time, its history and the switches down at the end. *)
let mc_episodes ~t_end ~down ~control h mc events =
  let installs, finals =
    match h with Some h -> (h.h_installs, h.h_final) | None -> ([], [])
  in
  (* Each live installing switch's installs, in trace order. *)
  let by_switch = Hashtbl.create 8 in
  List.iter (fun i -> push by_switch i.i_switch i) (List.rev installs);
  let live =
    List.filter_map
      (fun f ->
        if Hashtbl.mem down f.i_switch then None
        else Hashtbl.find_opt by_switch f.i_switch)
      finals
  in
  let covered x k i =
    match i.i_entry.event with
    | Topology_installed { c; _ } -> component c x >= k
    | _ -> false
  in
  (* When the event settles, [None] when it never does. *)
  let settle (t, x, k) =
    List.fold_left
      (fun acc is ->
        match (acc, List.find_opt (covered x k) is) with
        | Some s, Some i -> Some (Float.max s i.i_entry.time)
        | _ -> None)
      (Some t) live
  in
  let close (e_start, e_end, e_converged, e_events) =
    let count ts =
      List.length (List.filter (fun t -> t >= e_start && t <= e_end) ts)
    in
    {
      e_mc = mc;
      e_start;
      e_end;
      e_converged;
      e_events;
      e_installs = count (List.map (fun i -> i.i_entry.time) installs);
      e_control = count control;
    }
  in
  let step (cur, acc) ((t, _, _) as ev) =
    let stop, settled =
      match settle ev with Some s -> (s, true) | None -> (t_end, false)
    in
    match cur with
    | Some (s0, e0, ok, n) when t <= e0 ->
      (Some (s0, Float.max e0 stop, ok && settled, n + 1), acc)
    | Some c -> (Some (t, stop, settled, 1), close c :: acc)
    | None -> (Some (t, stop, settled, 1), acc)
  in
  match List.fold_left step (None, []) events with
  | Some c, acc -> List.rev (close c :: acc)
  | None, acc -> List.rev acc

(* Every MC's episodes, MCs by name. *)
let episodes entries =
  let events = Hashtbl.create 64 and control = Hashtbl.create 8 in
  let mc_of = Hashtbl.create 256 and down = Hashtbl.create 8 in
  let event mc x stamp time =
    let key = (mc, x, component stamp x) in
    match Hashtbl.find_opt events key with
    | Some t when t <= time -> ()
    | _ -> Hashtbl.replace events key time
  in
  List.iter
    (fun (e : Sim.Trace.entry) ->
      match e.event with
      | Lsa_originated { switch; mc; seq; ev; proposal; stamp } when mc <> "" ->
        Hashtbl.replace mc_of (switch, seq) mc;
        if (not proposal) && ev <> "none" then event mc switch stamp e.time;
        push control mc e.time
      | Compute_started { switch; mc; trigger; r }
        when mc <> "" && String.starts_with ~prefix:"event:" trigger ->
        event mc switch r e.time
      | Lsa_forwarded { origin; seq; _ } ->
        Option.iter
          (fun mc -> push control mc e.time)
          (Hashtbl.find_opt mc_of (origin, seq))
      | Crash { switch } -> Hashtbl.replace down switch ()
      | Recover { switch } -> Hashtbl.remove down switch
      | _ -> ())
    entries;
  let hs = histories entries and t_end = snd (span entries) in
  let by_time (t1, x1, k1) (t2, x2, k2) =
    match Float.compare t1 t2 with
    | 0 -> ( match Int.compare x1 x2 with 0 -> Int.compare k1 k2 | c -> c)
    | c -> c
  in
  Hashtbl.fold (fun (mc, _, _) _ acc -> mc :: acc) events []
  |> List.sort_uniq String.compare
  |> List.concat_map (fun mc ->
         Hashtbl.fold
           (fun (m, x, k) t acc ->
             if String.equal m mc then (t, x, k) :: acc else acc)
           events []
         |> List.sort by_time
         |> mc_episodes ~t_end ~down
              ~control:(Option.value ~default:[] (Hashtbl.find_opt control mc))
              (List.find_opt (fun h -> String.equal h.h_mc mc) hs)
              mc)

type dist = {
  d_count : int;
  d_mean : float;
  d_p50 : float;
  d_p90 : float;
  d_p99 : float;
  d_max : float;
}

let empty_dist =
  { d_count = 0; d_mean = 0.0; d_p50 = 0.0; d_p90 = 0.0; d_p99 = 0.0;
    d_max = 0.0 }

let dist_of samples =
  match samples with
  | [] -> empty_dist
  | _ ->
    {
      d_count = List.length samples;
      d_mean = Metrics.Stats.mean samples;
      d_p50 = Metrics.Stats.percentile samples 50.0;
      d_p90 = Metrics.Stats.percentile samples 90.0;
      d_p99 = Metrics.Stats.percentile samples 99.0;
      d_max = List.fold_left Float.max Float.neg_infinity samples;
    }

let latency e = e.e_end -. e.e_start

(* The latency distribution over the converged episodes, the control
   distribution over all, and the unconverged count. *)
let sli es =
  let converged = List.filter (fun e -> e.e_converged) es in
  ( dist_of (List.map latency converged),
    dist_of (List.map (fun e -> float_of_int e.e_control) es),
    List.length es - List.length converged )

(* ------------------------------------------------------------------ *)
(* Run report: rendering helpers *)

(* dgmc-analyze: allow float-format — human-facing report rendering; the
   JSON form uses round-trip rendering *)
let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "nan"

(* Per-directed-link fault aggregation from [Fault_injected] events
   (capped at the trace ring size, unlike the plan's exact aggregate
   [Faults.Plan.counters]). *)
type link_faults = {
  mutable f_drops : int;
  mutable f_dups : int;
  mutable f_reorders : int;
  mutable f_blocked : int;
}

let fault_links entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Sim.Trace.entry) ->
      match e.event with
      | Fault_injected { src; dst; fault } ->
        let f =
          match Hashtbl.find_opt tbl (src, dst) with
          | Some f -> f
          | None ->
            let f =
              { f_drops = 0; f_dups = 0; f_reorders = 0; f_blocked = 0 }
            in
            Hashtbl.add tbl (src, dst) f;
            f
        in
        if fault = "drop" then f.f_drops <- f.f_drops + 1
        else if fault = "duplicate" then f.f_dups <- f.f_dups + 1
        else if String.starts_with ~prefix:"reorder" fault then
          f.f_reorders <- f.f_reorders + 1
        else if String.starts_with ~prefix:"blocked" fault then
          f.f_blocked <- f.f_blocked + 1
      | _ -> ())
    entries;
  Hashtbl.fold (fun k f acc -> (k, f) :: acc) tbl []
  |> List.sort (fun ((a1, a2), _) ((b1, b2), _) ->
         match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)

(* Link-health detection summary from [Link_detected] events. *)
type detection = {
  det_downs : int;  (** True down verdicts. *)
  det_ups : int;
  det_spurious : int;
  det_latency : dist;  (** Of the true downs, nearest-rank percentiles. *)
}

(* [dist_of] for an ascending sample, with nearest-rank percentiles
   and no interpolation. *)
let nearest_rank_dist = function
  | [] -> empty_dist
  | sorted ->
    let n = List.length sorted in
    let rank q = Metrics.Stats.nearest_rank sorted q in
    {
      d_count = n;
      d_mean = Metrics.Stats.mean sorted;
      d_p50 = rank 0.50;
      d_p90 = rank 0.90;
      d_p99 = rank 0.99;
      d_max = List.nth sorted (n - 1);
    }

let detections entries =
  let downs = ref 0 and ups = ref 0 and spurious = ref 0 in
  let lats = ref [] in
  List.iter
    (fun (e : Sim.Trace.entry) ->
      match e.event with
      | Link_detected { up; latency; spurious = sp; _ } ->
        if sp then incr spurious
        else if up then incr ups
        else begin
          incr downs;
          lats := latency :: !lats
        end
      | _ -> ())
    entries;
  {
    det_downs = !downs;
    det_ups = !ups;
    det_spurious = !spurious;
    det_latency = nearest_rank_dist (List.sort Float.compare !lats);
  }

let dist_header =
  "| figure | n | mean | p50 | p90 | p99 | max |\n\
   |---|---:|---:|---:|---:|---:|---:|\n"

let dist_row label d =
  Printf.sprintf "| %s | %d | %s | %s | %s | %s | %s |\n" label d.d_count
    (num d.d_mean) (num d.d_p50) (num d.d_p90) (num d.d_p99) (num d.d_max)

let markdown (a : Sim.Trace.archive) =
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let entries = a.a_entries in
  out "# D-GMC run report\n\n";
  out "## Trace\n\n";
  out "- events: %d retained, %d emitted, %d evicted\n" (List.length entries)
    a.a_emitted a.a_dropped;
  if a.a_dropped > 0 then out "- **warning**: %s\n" (dropped_note a);
  (let t0, t1 = span entries in
   out "- simulated span: %s s\n\n" (num (t1 -. t0)));
  if entries <> [] then begin
    out "| category | events |\n|---|---:|\n";
    List.iter (fun (c, n) -> out "| %s | %d |\n" c n) (category_counts entries);
    out "\n"
  end;
  let es = episodes entries in
  let lat, control, unconverged = sli es in
  out "## Reconfiguration episodes\n\n";
  out "- episodes: %d (%d unconverged)\n\n" (List.length es) unconverged;
  if es <> [] then begin
    out "%s%s%s" dist_header (dist_row "convergence latency (s)" lat)
      (dist_row "control messages" control);
    out "\n| mc | start s | end s | latency s | events | installs | control |\n";
    out "|---|---:|---:|---:|---:|---:|---:|\n";
    List.iter
      (fun e ->
        out "| %s | %s | %s | %s | %d | %d | %d |\n" e.e_mc (num e.e_start)
          (num e.e_end)
          (if e.e_converged then num (latency e) else "unconverged")
          e.e_events e.e_installs e.e_control)
      es;
    out "\n"
  end;
  (match fault_links entries with
  | [] -> ()
  | links ->
    out "## Fault injections by link\n\n";
    out "| link | drops | duplicates | reorders | blocked |\n";
    out "|---|---:|---:|---:|---:|\n";
    List.iter
      (fun ((src, dst), f) ->
        out "| %d → %d | %d | %d | %d | %d |\n" src dst f.f_drops f.f_dups
          f.f_reorders f.f_blocked)
      links;
    out "\n");
  (let d = detections entries in
   if d.det_downs + d.det_ups + d.det_spurious > 0 then begin
     out "## Link-health detection\n\n";
     out "- down verdicts: %d true, %d spurious\n" d.det_downs d.det_spurious;
     out "- up (recovery) verdicts: %d\n\n" d.det_ups;
     if d.det_latency.d_count > 0 then
       out "%s%s\n" dist_header (dist_row "detection latency (s)" d.det_latency)
   end);
  Buffer.contents b

let dist_json d =
  Printf.sprintf
    {|{"count": %d, "mean": %s, "p50": %s, "p90": %s, "p99": %s, "max": %s}|}
    d.d_count (Sim.Json.number d.d_mean) (Sim.Json.number d.d_p50)
    (Sim.Json.number d.d_p90) (Sim.Json.number d.d_p99)
    (Sim.Json.number d.d_max)

let episode_json e =
  Printf.sprintf
    {|{"mc": "%s", "start_s": %s, "end_s": %s, "latency_s": %s, "events": %d, "installs": %d, "control_msgs": %d}|}
    (Sim.Json.escape e.e_mc) (Sim.Json.number e.e_start)
    (Sim.Json.number e.e_end)
    (if e.e_converged then Sim.Json.number (latency e) else "null")
    e.e_events e.e_installs e.e_control

let sli_json es =
  let lat, control, unconverged = sli es in
  Printf.sprintf
    "{\"unconverged\": %d, \"latency_s\": %s, \"control_msgs\": %s, \
     \"episodes\": [\n      %s\n    ]}"
    unconverged (dist_json lat) (dist_json control)
    (String.concat ",\n      " (List.map episode_json es))

let json (a : Sim.Trace.archive) =
  let entries = a.a_entries in
  let note =
    if a.a_dropped > 0 then
      Printf.sprintf ",\n    \"note\": \"%s\"" (Sim.Json.escape (dropped_note a))
    else ""
  in
  let faults_field =
    match fault_links entries with
    | [] -> "[]"
    | links ->
      "["
      ^ String.concat ", "
          (List.map
             (fun ((src, dst), f) ->
               Printf.sprintf
                 {|{"src": %d, "dst": %d, "drops": %d, "duplicates": %d, "reorders": %d, "blocked": %d}|}
                 src dst f.f_drops f.f_dups f.f_reorders f.f_blocked)
             links)
      ^ "]"
  in
  let detection_field =
    let d = detections entries in
    if d.det_downs + d.det_ups + d.det_spurious = 0 then "null"
    else
      Printf.sprintf {|{"downs": %d, "ups": %d, "spurious": %d, "latency": %s}|}
        d.det_downs d.det_ups d.det_spurious (dist_json d.det_latency)
  in
  Printf.sprintf
    {|{
  "schema": "dgmc-report/2",
  "trace": {
    "emitted": %d,
    "retained": %d,
    "dropped": %d%s
  },
  "sli": %s,
  "faults_by_link": %s,
  "detection": %s
}
|}
    a.a_emitted (List.length entries) a.a_dropped note
    (sli_json (episodes entries))
    faults_field detection_field

(* ------------------------------------------------------------------ *)
(* Analyzer modes *)

(* The switch an event happened at (transmissions count at the sender). *)
let switch_of (ev : Sim.Trace.event) =
  match ev with
  | Lsa_originated { switch; _ }
  | Lsa_delivered { switch; _ }
  | Compute_started { switch; _ }
  | Proposal_made { switch; _ }
  | Topology_installed { switch; _ }
  | Crash { switch }
  | Recover { switch }
  | Resync { switch; _ }
  | Link_detected { switch; _ }
  | Link_suppressed { switch; _ } -> Some switch
  | Lsa_forwarded { src; _ } | Lsa_dropped { src; _ } | Fault_injected { src; _ }
    -> Some src
  | Note _ -> None

let trace_summary (a : Sim.Trace.archive) =
  let b = Buffer.create 1024 in
  let entries = a.a_entries in
  Printf.bprintf b "events: %d retained, %d emitted, %d evicted\n"
    (List.length entries) a.a_emitted a.a_dropped;
  if entries <> [] then begin
    let t0, t1 = span entries in
    Printf.bprintf b "time span: [%s, %s]\n" (time_g t0) (time_g t1)
  end;
  Buffer.add_string b "by category:\n";
  List.iter
    (fun (cat, n) -> Printf.bprintf b "  %-12s %6d\n" cat n)
    (category_counts entries);
  (match
     tally Int.compare (fun (e : Sim.Trace.entry) -> switch_of e.event) entries
   with
  | [] -> ()
  | per_switch ->
    Buffer.add_string b "by switch:\n";
    List.iter
      (fun (sw, n) -> Printf.bprintf b "  switch %-4d %6d\n" sw n)
      per_switch);
  List.iter
    (fun h ->
      Printf.bprintf b "%s: %d install(s) at %d switch(es), %d final view(s)\n"
        h.h_mc (List.length h.h_installs) (List.length h.h_final)
        (List.length (final_views h)))
    (histories entries);
  Buffer.contents b

let convergence (a : Sim.Trace.archive) =
  let b = Buffer.create 4096 in
  List.iter
    (fun h ->
      Printf.bprintf b "%s:\n" h.h_mc;
      List.iter
        (fun i ->
          (* dgmc-analyze: allow float-format — human-facing analyzer
             timeline, the same column format as Sim.Trace.pp_entry *)
          Printf.bprintf b "  [%12.6f] #%-5d switch %-3d installs %s\n"
            i.i_entry.time i.i_entry.id i.i_switch i.i_view)
        h.h_installs;
      match final_views h with
      | [ v ] ->
        Printf.bprintf b "  converged: all %d installing switch(es) end on %s\n"
          (List.length h.h_final) v
      | vs ->
        Printf.bprintf b "  DIVERGED: %d distinct final views\n" (List.length vs))
    (histories a.a_entries);
  Buffer.contents b

(* The final majority view per MC, then — for each switch that ends
   elsewhere — the first install event after that switch's own last
   install whose view differs from the switch's final view: the point
   where the network's history departs from the lagging switch's.  The
   causal chain of that event ({!chain}) names the LSA the switch
   missed. *)
let divergence (a : Sim.Trace.archive) =
  let b = Buffer.create 1024 in
  let entries = a.a_entries in
  let diverged = ref false in
  let lagging_switch h last =
    let sw = last.i_switch in
    Printf.bprintf b "  switch %d departs: last installed %s (#%d, t=%s)\n" sw
      last.i_view last.i_entry.id (time_g last.i_entry.time);
    (match
       List.find_opt
         (fun i ->
           i.i_entry.id > last.i_entry.id
           && not (String.equal i.i_view last.i_view))
         h.h_installs
     with
    | Some i ->
      Printf.bprintf b
        "    first event it missed: #%d t=%s switch %d installs %s\n"
        i.i_entry.id (time_g i.i_entry.time) i.i_switch i.i_view;
      Printf.bprintf b "    causal ancestry: dgmc_report --chain %d\n"
        i.i_entry.id
    | None ->
      Printf.bprintf b
        "    no later install in the trace — switch %d installed last yet \
         differs (it departed on its own)\n"
        sw);
    (* what this switch missed or lived through *)
    let drops =
      List.length
        (List.filter
           (fun (e : Sim.Trace.entry) ->
             match e.event with Lsa_dropped { dst; _ } -> dst = sw | _ -> false)
           entries)
    in
    if drops > 0 then
      Printf.bprintf b "    LSA copies dropped towards it: %d\n" drops;
    List.iter
      (fun (e : Sim.Trace.entry) ->
        match e.event with
        | Crash { switch } when switch = sw ->
          Printf.bprintf b "    crashed at t=%s (#%d)\n" (time_g e.time) e.id
        | Recover { switch } when switch = sw ->
          Printf.bprintf b "    recovered at t=%s (#%d)\n" (time_g e.time) e.id
        | _ -> ())
      entries
  in
  List.iter
    (fun h ->
      let votes v =
        List.length (List.filter (fun i -> String.equal i.i_view v) h.h_final)
      in
      (* Most switches; ties go to the lexicographically smaller view
         (views come sorted), so the report is deterministic. *)
      let majority =
        List.fold_left
          (fun best v ->
            let n = votes v in
            match best with
            | Some (_, bn) when bn >= n -> best
            | _ -> Some (v, n))
          None (final_views h)
      in
      match majority with
      | None -> ()
      | Some (maj, _) -> (
        match
          List.filter (fun i -> not (String.equal i.i_view maj)) h.h_final
        with
        | [] ->
          Printf.bprintf b
            "%s: no divergence — %d installing switch(es) agree on %s\n" h.h_mc
            (List.length h.h_final) maj
        | lagging ->
          diverged := true;
          Printf.bprintf b "%s: majority view %s\n" h.h_mc maj;
          List.iter (lagging_switch h) lagging))
    (histories entries);
  (Buffer.contents b, !diverged)

let chain (a : Sim.Trace.archive) id =
  let tbl = Hashtbl.create (List.length a.a_entries * 2) in
  List.iter
    (fun (e : Sim.Trace.entry) -> Hashtbl.replace tbl e.id e)
    a.a_entries;
  match Hashtbl.find_opt tbl id with
  | None ->
    Error
      (Printf.sprintf
         "no event #%d in this trace (%d emitted; it may have been evicted \
          by the ring buffer or filtered by --trace-cats)"
         id a.a_emitted)
  | Some e ->
    let b = Buffer.create 1024 in
    let rec ancestry (e : Sim.Trace.entry) acc =
      let acc = e :: acc in
      if e.parent < 0 then acc
      else
        match Hashtbl.find_opt tbl e.parent with
        | Some p -> ancestry p acc
        | None ->
          (* parent emitted but not retained: truncated chain *)
          Printf.bprintf b "(ancestry truncated: #%d not retained)\n" e.parent;
          acc
    in
    List.iter
      (fun e ->
        Printf.bprintf b "%s\n" (Format.asprintf "%a" Sim.Trace.pp_entry e))
      (ancestry e []);
    Ok (Buffer.contents b)
