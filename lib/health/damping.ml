type config = {
  penalty : float;
  suppress : float;
  reuse : float;
  half_life : float;
}

let validate cfg =
  if cfg.penalty <= 0.0 then Error "damping penalty must be positive"
  else if cfg.reuse <= 0.0 then Error "damping reuse threshold must be positive"
  else if cfg.suppress <= cfg.reuse then
    Error "damping suppress threshold must exceed the reuse threshold"
  else if cfg.half_life <= 0.0 then Error "damping half-life must be positive"
  else Ok ()

type t = {
  cfg : config;
  mutable figure : float;  (* penalty figure as of [at] *)
  mutable at : float;
  mutable is_suppressed : bool;
}

let create cfg =
  (match validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Damping.create: " ^ e));
  { cfg; figure = 0.0; at = neg_infinity; is_suppressed = false }

let decay t ~now =
  if now > t.at then begin
    if Float.is_finite t.at then
      t.figure <- t.figure *. (0.5 ** ((now -. t.at) /. t.cfg.half_life));
    t.at <- now
  end;
  if t.is_suppressed && t.figure <= t.cfg.reuse then t.is_suppressed <- false

let flap t ~now =
  decay t ~now;
  t.figure <- t.figure +. t.cfg.penalty;
  if t.figure >= t.cfg.suppress then t.is_suppressed <- true

let suppressed t ~now =
  decay t ~now;
  t.is_suppressed

let reuse_time t ~now =
  decay t ~now;
  if not t.is_suppressed then None
  else
    (* figure · 2^(−dt / half_life) = reuse  ⇒  dt = half_life · log2 (figure / reuse) *)
    Some (t.at +. (t.cfg.half_life *. (Float.log2 (t.figure /. t.cfg.reuse))))
