(* The trace → SLI adapter and the human/machine run report.

   This module owns the one piece of protocol knowledge the SLI layer
   deliberately does not have: which trace events anchor, cost, and
   close a reconfiguration window (Metrics.Sli is trace-agnostic). *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Reduce a causal trace to SLI observations.

   - Anchors are the local membership/link events: a [Compute_started]
     whose trigger is ["event:<ev>"] (switches tag local triggers that
     way; remote ones read ["receive-lsa"]), and the matching non-proposal
     MC-LSA origination that announces the event to the network.
   - Control cost is every MC-LSA origination plus every per-link copy of
     one ([Lsa_forwarded], retransmissions included).  Forwards carry
     only (origin, seq), so originations are indexed as they pass — a
     forward always trails its origination in emission order.
   - Installs close windows ([Topology_installed]). *)
let sli_of_trace entries =
  let mc_of = Hashtbl.create 256 in
  let obs = ref [] in
  let push o = obs := o :: !obs in
  List.iter
    (fun (e : Sim.Trace.entry) ->
      let time = e.time in
      match e.event with
      | Lsa_originated { switch; mc; seq; ev; proposal; _ } when mc <> "" ->
        Hashtbl.replace mc_of (switch, seq) mc;
        if (not proposal) && ev <> "none" then
          push (Metrics.Sli.anchor ~mc ~time);
        push (Metrics.Sli.control ~mc ~time)
      | Compute_started { mc; trigger; _ }
        when mc <> "" && starts_with ~prefix:"event:" trigger ->
        push (Metrics.Sli.anchor ~mc ~time)
      | Lsa_forwarded { origin; seq; _ } -> (
        match Hashtbl.find_opt mc_of (origin, seq) with
        | Some mc -> push (Metrics.Sli.control ~mc ~time)
        | None -> ())
      | Topology_installed { mc; _ } when mc <> "" ->
        push (Metrics.Sli.install ~mc ~time)
      | _ -> ())
    entries;
  List.rev !obs

let span entries =
  match entries with
  | [] -> 0.0
  | (first : Sim.Trace.entry) :: _ ->
    let last = List.fold_left (fun _ (e : Sim.Trace.entry) -> e.time) first.time entries in
    last -. first.time

(* With no better knowledge of the workload, call gaps longer than 1/20
   of the run separate reconfigurations; degenerate spans fall back to
   one simulated second. *)
let default_gap entries =
  let s = span entries /. 20.0 in
  if s > 0.0 then s else 1.0

(* ------------------------------------------------------------------ *)
(* Rendering helpers *)

(* dgmc-analyze: allow float-format — human-facing report rendering; the
   JSON form uses round-trip rendering *)
let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "nan"

let category_counts entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Sim.Trace.entry) ->
      let c = Sim.Trace.category e.event in
      Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    entries;
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dropped_note (a : Sim.Trace.archive) =
  Printf.sprintf
    "%d event(s) were evicted from the trace ring buffer; counts and SLI \
     windows below understate the run (raise the trace cap)"
    a.a_dropped

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

let percentile sorted p =
  match sorted with
  | [] -> 0.0
  | ls ->
    let n = List.length ls in
    let idx = min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)) in
    List.nth ls idx

let dist_row label (d : Metrics.Sli.dist) =
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
  out "- simulated span: %s s\n\n" (num (span entries));
  if entries <> [] then begin
    out "| category | events |\n|---|---:|\n";
    List.iter (fun (c, n) -> out "| %s | %d |\n" c n) (category_counts entries);
    out "\n"
  end;
  let summary = Metrics.Sli.summarize ~gap (sli_of_trace entries) in
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
      (fun (w : Metrics.Sli.window) ->
        out "| %s | %s | %s | %s | %d | %d | %d |\n" w.w_mc (num w.w_start)
          (num w.w_end)
          (num (Metrics.Sli.latency w))
          w.w_anchors w.w_installs w.w_control)
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
         (num (percentile ls 0.50))
         (num (percentile ls 0.90))
         (num (percentile ls 0.99))
         (num (List.nth ls (n - 1)))
   end);
  Buffer.contents b

let json ~gap (a : Sim.Trace.archive) =
  let entries = a.a_entries in
  let summary = Metrics.Sli.summarize ~gap (sli_of_trace entries) in
  let note =
    if a.a_dropped > 0 then
      Printf.sprintf ",\n    \"note\": \"%s\"" (Metrics.Jsonf.escape (dropped_note a))
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
        (Sim.Json.number (percentile ls 0.50))
        (Sim.Json.number (percentile ls 0.90))
        (Sim.Json.number (percentile ls 0.99))
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
    (Metrics.Sli.to_json summary)
    faults_field detection_field
