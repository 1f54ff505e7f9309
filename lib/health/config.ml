type damping = {
  d_penalty : float;
  d_suppress : float;
  d_reuse : float;
  d_half_life : float;
}

type t = {
  period : float;
  grace : float;
  detector : int;
  reup : int;
  damping : damping option;
  horizon : float;
}

let make ~period ?grace ~detector ?(reup = 2) ?damping ~horizon () =
  let grace = match grace with Some g -> g | None -> period /. 2.0 in
  { period; grace; detector; reup; damping; horizon }

let validate t =
  if not (Float.is_finite t.period && t.period > 0.0) then
    Error "health hello period must be positive and finite"
  else if not (Float.is_finite t.grace && t.grace >= 0.0) then
    Error "health grace must be >= 0 and finite"
  else if t.reup < 1 then Error "health reup must be >= 1"
  else if not (Float.is_finite t.horizon && t.horizon > 0.0) then
    Error "health horizon must be positive and finite"
  else if t.detector < 1 then Error "health detector k must be >= 1"
  else
    match t.damping with
    | None -> Ok ()
    | Some d ->
      Damping.validate
        {
          Damping.penalty = d.d_penalty;
          suppress = d.d_suppress;
          reuse = d.d_reuse;
          half_life = d.d_half_life;
        }
      |> Result.map_error (fun e -> "health " ^ e)

let detect_bound t =
  Detector.max_timeout ~k:t.detector ~period:t.period ~grace:t.grace +. t.period

let describe t =
  (* dgmc-analyze: allow float-format — human-readable config summary *)
  Printf.sprintf
    "hello period %gs grace %gs detector k-missed=%d reup %d%s horizon %gs"
    t.period t.grace t.detector t.reup
    (match t.damping with
    | None -> ""
    | Some d ->
      (* dgmc-analyze: allow float-format — human-readable config summary *)
      Printf.sprintf " damping(penalty %g suppress %g reuse %g half-life %gs)"
        d.d_penalty d.d_suppress d.d_reuse d.d_half_life)
    t.horizon
