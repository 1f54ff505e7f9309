type damping = Damping.config

type t = {
  period : float;
  grace : float;
  detector : int;
  damping : damping option;
  horizon : float;
}

let reup = 2

let make ~period ~detector ?damping ~horizon () =
  { period; grace = period /. 2.0; detector; damping; horizon }

let validate t =
  if not (Float.is_finite t.period && t.period > 0.0) then
    Error "health hello period must be positive and finite"
  else if not (Float.is_finite t.grace && t.grace >= 0.0) then
    Error "health grace must be >= 0 and finite"
  else if not (Float.is_finite t.horizon && t.horizon > 0.0) then
    Error "health horizon must be positive and finite"
  else if t.detector < 1 then Error "health detector k must be >= 1"
  else
    match t.damping with
    | None -> Ok ()
    | Some d -> Result.map_error (fun e -> "health " ^ e) (Damping.validate d)

let detect_bound t =
  Detector.max_timeout ~k:t.detector ~period:t.period ~grace:t.grace +. t.period

let describe t =
  (* dgmc-analyze: allow float-format — human-readable config summary *)
  Printf.sprintf
    "hello period %gs grace %gs detector k-missed=%d reup %d%s horizon %gs"
    t.period t.grace t.detector reup
    (match t.damping with
    | None -> ""
    | Some d ->
      (* dgmc-analyze: allow float-format — human-readable config summary *)
      Printf.sprintf " damping(penalty %g suppress %g reuse %g half-life %gs)"
        d.penalty d.suppress d.reuse d.half_life)
    t.horizon
