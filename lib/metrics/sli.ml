(* Protocol service-level indicators: reconfiguration windows.

   A window is one burst of activity on one MC — anchored by a local
   membership/link event and closed by the last topology install of the
   burst — sessionized by a time gap: observations on the same MC closer
   than [gap] belong to the same window.  From the windows we report the
   paper's dynamics as distributions: convergence latency (anchor to last
   install) and control cost (control messages per window).

   The module is deliberately trace-agnostic: callers reduce whatever
   causal record they have (Sim.Trace entries, live callbacks) to [obs]
   values; Report.Run_report holds the trace adapter. *)

type kind = Anchor | Control | Install

type obs = { o_mc : string; o_time : float; o_kind : kind }

let anchor ~mc ~time = { o_mc = mc; o_time = time; o_kind = Anchor }

let control ~mc ~time = { o_mc = mc; o_time = time; o_kind = Control }

let install ~mc ~time = { o_mc = mc; o_time = time; o_kind = Install }

type window = {
  w_mc : string;
  w_start : float;  (** First anchor of the session. *)
  w_end : float;  (** Last install at or after the anchor; [w_start] if none. *)
  w_anchors : int;
  w_installs : int;
  w_control : int;
}

let latency w = w.w_end -. w.w_start

let converged w = w.w_installs > 0

(* Split one MC's time-sorted observations into sessions: maximal runs
   whose consecutive gaps stay under [gap]. *)
let sessions ~gap obs =
  match obs with
  | [] -> []
  | first :: _ ->
    let flush cur acc = List.rev cur :: acc in
    let rec walk prev_t cur acc = function
      | [] -> List.rev (flush cur acc)
      | o :: rest ->
        if o.o_time -. prev_t < gap then walk o.o_time (o :: cur) acc rest
        else walk o.o_time [ o ] (flush cur acc) rest
    in
    walk first.o_time [] [] obs

let window_of mc session =
  match List.find_opt (fun o -> o.o_kind = Anchor) session with
  | None -> None  (* ambient control/install activity with no local event *)
  | Some a0 ->
    let within = List.filter (fun o -> o.o_time >= a0.o_time) session in
    let count k = List.length (List.filter (fun o -> o.o_kind = k) within) in
    let w_end =
      List.fold_left
        (fun acc o -> if o.o_kind = Install then Float.max acc o.o_time else acc)
        a0.o_time within
    in
    Some
      {
        w_mc = mc;
        w_start = a0.o_time;
        w_end;
        w_anchors = count Anchor;
        w_installs = count Install;
        w_control = count Control;
      }

let windows ~gap obs =
  if not (gap > 0.0 && Float.is_finite gap) then
    invalid_arg "Metrics.Sli.windows: gap must be positive and finite";
  let mcs = List.sort_uniq String.compare (List.map (fun o -> o.o_mc) obs) in
  List.concat_map
    (fun mc ->
      let os =
        List.filter (fun o -> o.o_mc = mc) obs
        |> List.stable_sort (fun a b -> Float.compare a.o_time b.o_time)
      in
      List.filter_map (window_of mc) (sessions ~gap os))
    mcs

(* ------------------------------------------------------------------ *)
(* Distributions *)

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
      d_mean = Stats.mean samples;
      d_p50 = Stats.percentile samples 50.0;
      d_p90 = Stats.percentile samples 90.0;
      d_p99 = Stats.percentile samples 99.0;
      d_max = List.fold_left Float.max Float.neg_infinity samples;
    }

type summary = {
  s_gap : float;
  s_windows : window list;
  s_latency : dist;  (** Convergence latency over converged windows. *)
  s_control : dist;  (** Control messages per window, all windows. *)
  s_unconverged : int;  (** Windows with an anchor but no install. *)
}

let summarize ~gap obs =
  let ws = windows ~gap obs in
  let converged_ws = List.filter converged ws in
  {
    s_gap = gap;
    s_windows = ws;
    s_latency = dist_of (List.map latency converged_ws);
    s_control = dist_of (List.map (fun w -> float_of_int w.w_control) ws);
    s_unconverged = List.length (List.filter (fun w -> not (converged w)) ws);
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let window_json w =
  Printf.sprintf
    {|{"mc": "%s", "start_s": %s, "end_s": %s, "latency_s": %s, "anchors": %d, "installs": %d, "control_msgs": %d}|}
    (Jsonf.escape w.w_mc) (Jsonf.num w.w_start) (Jsonf.num w.w_end)
    (Jsonf.num (latency w))
    w.w_anchors w.w_installs w.w_control

let dist_json d =
  Printf.sprintf
    {|{"count": %d, "mean": %s, "p50": %s, "p90": %s, "p99": %s, "max": %s}|}
    d.d_count (Jsonf.num d.d_mean) (Jsonf.num d.d_p50) (Jsonf.num d.d_p90)
    (Jsonf.num d.d_p99) (Jsonf.num d.d_max)

let to_json s =
  Printf.sprintf
    "{\"gap_s\": %s, \"unconverged\": %d, \"latency_s\": %s, \"control_msgs\": \
     %s, \"windows\": [\n      %s\n    ]}"
    (Jsonf.num s.s_gap) s.s_unconverged (dist_json s.s_latency)
    (dist_json s.s_control)
    (String.concat ",\n      " (List.map window_json s.s_windows))
