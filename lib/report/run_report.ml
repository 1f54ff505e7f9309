(* The one reader of dgmc-trace/1 captures.

   Every view of a trace is built here, as a string: the markdown/JSON
   run report with its reconfiguration SLIs, and the analyzer modes —
   summary, per-MC convergence, divergence, causal chain.  The
   dgmc_report binary only picks the mode, the exit code and where the
   text goes. *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

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

(* With no better knowledge of the workload, call gaps longer than 1/20
   of the run separate reconfigurations; degenerate spans fall back to
   one simulated second. *)
let default_gap entries =
  let t0, t1 = span entries in
  let s = (t1 -. t0) /. 20.0 in
  if s > 0.0 then s else 1.0

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
    "%d event(s) were evicted from the trace ring buffer; counts and SLI \
     windows below understate the run (raise the trace cap)"
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

let histories entries =
  let by_mc = Hashtbl.create 8 in
  List.iter
    (fun (e : Sim.Trace.entry) ->
      match e.event with
      | Topology_installed { switch; mc; members; tree; _ } ->
        let i =
          { i_entry = e; i_switch = switch; i_view = members ^ " " ^ tree }
        in
        Hashtbl.replace by_mc mc
          (i :: Option.value ~default:[] (Hashtbl.find_opt by_mc mc))
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
(* Reconfiguration SLIs

   A window is one burst of activity on one MC — anchored by a local
   membership/link event and closed by the last topology install of the
   burst — sessionized by a time gap: marks on the same MC closer than
   [gap] belong to the same window.  From the windows come the paper's
   dynamics as distributions: convergence latency (anchor to last
   install) and control cost (control messages per window). *)

type mark = Anchor | Control | Install

(* Each MC's SLI marks, (time, mark) in emission order; MCs by name.

   - Anchors are the local membership/link events: a [Compute_started]
     whose trigger is ["event:<ev>"] (switches tag local triggers that
     way; remote ones read ["receive-lsa"]), and the matching non-proposal
     MC-LSA origination that announces the event to the network.
   - Control cost is every MC-LSA origination plus every per-link copy of
     one ([Lsa_forwarded], retransmissions included).  Forwards carry
     only (origin, seq), so originations are indexed as they pass — a
     forward always trails its origination in emission order.
   - Installs close windows ([Topology_installed]). *)
let marks entries =
  let mc_of = Hashtbl.create 256 and by_mc = Hashtbl.create 8 in
  let push mc time m =
    Hashtbl.replace by_mc mc
      ((time, m) :: Option.value ~default:[] (Hashtbl.find_opt by_mc mc))
  in
  List.iter
    (fun (e : Sim.Trace.entry) ->
      let time = e.time in
      match e.event with
      | Lsa_originated { switch; mc; seq; ev; proposal; _ } when mc <> "" ->
        Hashtbl.replace mc_of (switch, seq) mc;
        if (not proposal) && ev <> "none" then push mc time Anchor;
        push mc time Control
      | Compute_started { mc; trigger; _ }
        when mc <> "" && starts_with ~prefix:"event:" trigger ->
        push mc time Anchor
      | Lsa_forwarded { origin; seq; _ } -> (
        match Hashtbl.find_opt mc_of (origin, seq) with
        | Some mc -> push mc time Control
        | None -> ())
      | Topology_installed { mc; _ } when mc <> "" -> push mc time Install
      | _ -> ())
    entries;
  Hashtbl.fold (fun mc rev acc -> (mc, List.rev rev) :: acc) by_mc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type window = {
  w_mc : string;
  w_start : float;
  w_end : float;
  w_anchors : int;
  w_installs : int;
  w_control : int;
}

let latency w = w.w_end -. w.w_start

let converged w = w.w_installs > 0

(* Split one MC's time-sorted marks into sessions: maximal runs whose
   consecutive gaps stay under [gap]. *)
let sessions ~gap ms =
  match ms with
  | [] -> []
  | (t0, _) :: _ ->
    let flush cur acc = List.rev cur :: acc in
    let rec walk prev_t cur acc = function
      | [] -> List.rev (flush cur acc)
      | ((t, _) as m) :: rest ->
        if t -. prev_t < gap then walk t (m :: cur) acc rest
        else walk t [ m ] (flush cur acc) rest
    in
    walk t0 [] [] ms

let window_of mc session =
  match List.find_opt (fun (_, m) -> m = Anchor) session with
  | None -> None  (* ambient control/install activity with no local event *)
  | Some (a0, _) ->
    let within = List.filter (fun (t, _) -> t >= a0) session in
    let count k = List.length (List.filter (fun (_, m) -> m = k) within) in
    let w_end =
      List.fold_left
        (fun acc (t, m) -> if m = Install then Float.max acc t else acc)
        a0 within
    in
    Some
      {
        w_mc = mc;
        w_start = a0;
        w_end;
        w_anchors = count Anchor;
        w_installs = count Install;
        w_control = count Control;
      }

type dist = {
  d_count : int;
  d_mean : float;
  d_p50 : float;
  d_p90 : float;
  d_p99 : float;
  d_max : float;
}

let dist_of samples =
  match samples with
  | [] ->
    { d_count = 0; d_mean = 0.0; d_p50 = 0.0; d_p90 = 0.0; d_p99 = 0.0;
      d_max = 0.0 }
  | _ ->
    {
      d_count = List.length samples;
      d_mean = Metrics.Stats.mean samples;
      d_p50 = Metrics.Stats.percentile samples 50.0;
      d_p90 = Metrics.Stats.percentile samples 90.0;
      d_p99 = Metrics.Stats.percentile samples 99.0;
      d_max = List.fold_left Float.max Float.neg_infinity samples;
    }

type summary = {
  s_gap : float;
  s_windows : window list;
  s_latency : dist;
  s_control : dist;
  s_unconverged : int;
}

let sli ~gap entries =
  if not (gap > 0.0 && Float.is_finite gap) then
    invalid_arg "Run_report.sli: gap must be positive and finite";
  let ws =
    List.concat_map
      (fun (mc, ms) ->
        List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) ms
        |> sessions ~gap
        |> List.filter_map (window_of mc))
      (marks entries)
  in
  let converged_ws = List.filter converged ws in
  {
    s_gap = gap;
    s_windows = ws;
    s_latency = dist_of (List.map latency converged_ws);
    s_control = dist_of (List.map (fun w -> float_of_int w.w_control) ws);
    s_unconverged = List.length (List.filter (fun w -> not (converged w)) ws);
  }

(* ------------------------------------------------------------------ *)
(* Run report: rendering helpers *)

(* dgmc-analyze: allow float-format — human-facing report rendering; the
   JSON form uses round-trip rendering *)
let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "nan"

(* Per-directed-link fault aggregation from [Fault_injected] events —
   the trace-side view of [Faults.Plan.link_counters] (capped at the
   trace ring size, unlike the plan's exact totals). *)
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
        else if starts_with ~prefix:"reorder" fault then
          f.f_reorders <- f.f_reorders + 1
        else if starts_with ~prefix:"blocked" fault then
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
  det_latencies : float list;  (** Of the true downs, sorted ascending. *)
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
    det_latencies = List.sort Float.compare !lats;
  }

let dist_row label d =
  Printf.sprintf "| %s | %d | %s | %s | %s | %s | %s |\n" label d.d_count
    (num d.d_mean) (num d.d_p50) (num d.d_p90) (num d.d_p99) (num d.d_max)

let markdown ~gap (a : Sim.Trace.archive) =
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
  let summary = sli ~gap entries in
  out "## Reconfiguration SLIs (gap = %s s)\n\n" (num gap);
  out "- windows: %d (%d unconverged)\n\n"
    (List.length summary.s_windows)
    summary.s_unconverged;
  if summary.s_windows <> [] then begin
    out "| figure | n | mean | p50 | p90 | p99 | max |\n";
    out "|---|---:|---:|---:|---:|---:|---:|\n";
    Buffer.add_string b (dist_row "convergence latency (s)" summary.s_latency);
    Buffer.add_string b (dist_row "control messages" summary.s_control);
    out "\n| mc | start s | end s | latency s | anchors | installs | control |\n";
    out "|---|---:|---:|---:|---:|---:|---:|\n";
    List.iter
      (fun w ->
        out "| %s | %s | %s | %s | %d | %d | %d |\n" w.w_mc (num w.w_start)
          (num w.w_end) (num (latency w)) w.w_anchors w.w_installs w.w_control)
      summary.s_windows;
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
     match d.det_latencies with
     | [] -> ()
     | ls ->
       let n = List.length ls in
       let mean = List.fold_left ( +. ) 0.0 ls /. float_of_int n in
       out "| figure | n | mean | p50 | p90 | p99 | max |\n";
       out "|---|---:|---:|---:|---:|---:|---:|\n";
       out "| detection latency (s) | %d | %s | %s | %s | %s | %s |\n\n" n
         (num mean)
         (num (Metrics.Stats.nearest_rank ls 0.50))
         (num (Metrics.Stats.nearest_rank ls 0.90))
         (num (Metrics.Stats.nearest_rank ls 0.99))
         (num (List.nth ls (n - 1)))
   end);
  Buffer.contents b

let dist_json d =
  Printf.sprintf
    {|{"count": %d, "mean": %s, "p50": %s, "p90": %s, "p99": %s, "max": %s}|}
    d.d_count (Sim.Json.number d.d_mean) (Sim.Json.number d.d_p50)
    (Sim.Json.number d.d_p90) (Sim.Json.number d.d_p99)
    (Sim.Json.number d.d_max)

let window_json w =
  Printf.sprintf
    {|{"mc": "%s", "start_s": %s, "end_s": %s, "latency_s": %s, "anchors": %d, "installs": %d, "control_msgs": %d}|}
    (Sim.Json.escape w.w_mc) (Sim.Json.number w.w_start)
    (Sim.Json.number w.w_end)
    (Sim.Json.number (latency w))
    w.w_anchors w.w_installs w.w_control

let sli_json s =
  Printf.sprintf
    "{\"gap_s\": %s, \"unconverged\": %d, \"latency_s\": %s, \"control_msgs\": \
     %s, \"windows\": [\n      %s\n    ]}"
    (Sim.Json.number s.s_gap) s.s_unconverged (dist_json s.s_latency)
    (dist_json s.s_control)
    (String.concat ",\n      " (List.map window_json s.s_windows))

let json ~gap (a : Sim.Trace.archive) =
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
      let ls = d.det_latencies in
      let n = List.length ls in
      let mean =
        if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 ls /. float_of_int n
      in
      Printf.sprintf
        {|{"downs": %d, "ups": %d, "spurious": %d, "latency": {"count": %d, "mean": %s, "p50": %s, "p90": %s, "p99": %s, "max": %s}}|}
        d.det_downs d.det_ups d.det_spurious n (Sim.Json.number mean)
        (Sim.Json.number (Metrics.Stats.nearest_rank ls 0.50))
        (Sim.Json.number (Metrics.Stats.nearest_rank ls 0.90))
        (Sim.Json.number (Metrics.Stats.nearest_rank ls 0.99))
        (Sim.Json.number (if n = 0 then 0.0 else List.nth ls (n - 1)))
  in
  Printf.sprintf
    {|{
  "schema": "dgmc-report/1",
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
    (sli_json (sli ~gap entries))
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
