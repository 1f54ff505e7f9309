type nb = {
  peer : int;
  at : int;  (* its index in [nbs] *)
  det : Detector.t;
  damp : Damping.t option;
  mutable up : bool;  (* this agent's belief about the adjacency *)
  mutable streak : int;  (* consecutive hellos heard while believed down *)
  mutable check : int;
      (* The token its armed down-verdict check is posted with, -1 when
         none is armed. *)
  mutable suppress_flag : bool;
}

type t = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  nbs : nb array;  (* ascending peer order *)
  send : peer:int -> unit;
  declare : peer:int -> up:bool -> unit;
  on_suppress : peer:int -> resumed:bool -> unit;
  mutable n_flaps : int;
  mutable armed : int;
      (* Checks armed so far: a check's token is [armed * |nbs| + at],
         unique to its arming, so re-arming makes the last one stale. *)
  mutable verdict : Sim.Engine.callback;  (* {!check}, posted with a token *)
}

let find t peer =
  let rec go i =
    if i >= Array.length t.nbs then None
    else if t.nbs.(i).peer = peer then Some t.nbs.(i)
    else go (i + 1)
  in
  go 0

(* Down-verdict checks are armed at the detector's deadline, but only
   while hellos are still flowing at that instant (deadline within the
   horizon): silence after the horizon is the schedule ending, not the
   link failing.  Re-arming retires the check armed before. *)
let rec arm_check t nb =
  if nb.check >= 0 then begin
    nb.check <- -1;
    Sim.Engine.retire t.engine
  end;
  let deadline = Detector.deadline nb.det in
  if deadline <= t.cfg.Config.horizon then begin
    nb.check <- (t.armed * Array.length t.nbs) + nb.at;
    t.armed <- t.armed + 1;
    Sim.Engine.post_at t.engine ~time:deadline t.verdict nb.check
  end

(* The check posted with [token], run only while it is its neighbour's
   armed one. *)
and check t token =
  let nb = t.nbs.(token mod Array.length t.nbs) in
  nb.check <- -1;
  if not nb.suppress_flag then begin
    let now = Sim.Engine.now t.engine in
    if Detector.down nb.det ~now then begin
      if nb.up then begin
        nb.up <- false;
        nb.streak <- 0;
        t.n_flaps <- t.n_flaps + 1;
        t.declare ~peer:nb.peer ~up:false;
        match nb.damp with
        | None -> ()
        | Some damp ->
          Damping.flap damp ~now;
          if Damping.suppressed damp ~now then begin
            nb.suppress_flag <- true;
            t.on_suppress ~peer:nb.peer ~resumed:false;
            arm_unsuppress t nb damp
          end
      end
      (* Already believed down: stay silent; the next arrival re-arms. *)
    end
    else
      (* An arrival moved the deadline since this check was scheduled. *)
      arm_check t nb
  end

and arm_unsuppress t nb damp =
  let now = Sim.Engine.now t.engine in
  match Damping.reuse_time damp ~now with
  | None -> unsuppress t nb
  | Some at ->
    (* One extra period of margin absorbs float rounding in the decay
       solve; the handler re-checks and re-arms, so progress is sure. *)
    Sim.Engine.schedule_at t.engine
      ~time:(at +. t.cfg.Config.period)
      (fun () ->
        let now = Sim.Engine.now t.engine in
        if nb.suppress_flag then
          if Damping.suppressed damp ~now then arm_unsuppress t nb damp
          else unsuppress t nb)

and unsuppress t nb =
  let now = Sim.Engine.now t.engine in
  nb.suppress_flag <- false;
  nb.streak <- 0;
  Detector.reset nb.det ~now;
  t.on_suppress ~peer:nb.peer ~resumed:true;
  arm_check t nb

let armed_check t token =
  t.nbs.(token mod Array.length t.nbs).check = token

let create ~engine ~config ~peers ~send ~declare ~on_suppress =
  (match Config.validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Hello.create: " ^ e));
  let start = Sim.Engine.now engine in
  let nbs =
    List.sort_uniq Int.compare peers
    |> List.mapi (fun at peer ->
           {
             peer;
             at;
             det =
               Detector.create ~k:config.Config.detector
                 ~period:config.Config.period ~grace:config.Config.grace ~start;
             damp = Option.map Damping.create config.Config.damping;
             up = true;
             streak = 0;
             check = -1;
             suppress_flag = false;
           })
    |> Array.of_list
  in
  let t =
    {
      engine;
      cfg = config;
      nbs;
      send;
      declare;
      on_suppress;
      n_flaps = 0;
      armed = 0;
      verdict = Sim.Engine.callback ignore;
    }
  in
  t.verdict <- Sim.Engine.callback ~live:(armed_check t) (check t);
  t

let rec tick t () =
  let now = Sim.Engine.now t.engine in
  Array.iter
    (fun nb -> if not nb.suppress_flag then t.send ~peer:nb.peer)
    t.nbs;
  let next = now +. t.cfg.Config.period in
  if next <= t.cfg.Config.horizon then
    Sim.Engine.schedule_at t.engine ~time:next (tick t)

let start t =
  Array.iter (arm_check t) t.nbs;
  tick t ()

let on_hello t ~from =
  match find t from with
  | None -> ()
  | Some nb ->
    if not nb.suppress_flag then begin
      let now = Sim.Engine.now t.engine in
      Detector.note_arrival nb.det ~now;
      if not nb.up then begin
        nb.streak <- nb.streak + 1;
        if nb.streak >= t.cfg.Config.reup then begin
          nb.up <- true;
          nb.streak <- 0;
          t.declare ~peer:nb.peer ~up:true
        end
      end;
      arm_check t nb
    end

let suppressed t =
  Array.fold_right
    (fun nb acc -> if nb.suppress_flag then nb.peer :: acc else acc)
    t.nbs []

let flaps t = t.n_flaps
