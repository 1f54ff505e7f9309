type spec = {
  drop : float;
  duplicate : float;
  reorder : float;
  jitter : float;
}

let spec_default = { drop = 0.0; duplicate = 0.0; reorder = 0.0; jitter = 0.0 }

(* A reordered copy is held back by up to this many base delays. *)
let reorder_span = 4.0

let check_spec s =
  let prob name v =
    if not (v >= 0.0 && v <= 1.0) then
      (* dgmc-analyze: allow float-format — human-readable error message *)
      Error (Printf.sprintf "%s must be a probability in [0, 1], got %g" name v)
    else Ok ()
  in
  let non_neg name v =
    if not (v >= 0.0 && v = v && v < infinity) then
      (* dgmc-analyze: allow float-format — human-readable error message *)
      Error (Printf.sprintf "%s must be non-negative and finite, got %g" name v)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = prob "drop" s.drop in
  let* () = prob "dup" s.duplicate in
  let* () = prob "reorder" s.reorder in
  let* () = non_neg "jitter" s.jitter in
  Ok s

let spec_of_string text =
  let fields =
    String.split_on_char ',' text
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let parse acc field =
    Result.bind acc (fun spec ->
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" field)
        | Some i ->
          let key = String.sub field 0 i in
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          (match float_of_string_opt v with
          | None -> Error (Printf.sprintf "%s: expected a number, got %S" key v)
          | Some v ->
            (match key with
            | "drop" -> Ok { spec with drop = v }
            | "dup" -> Ok { spec with duplicate = v }
            | "reorder" -> Ok { spec with reorder = v }
            | "jitter" -> Ok { spec with jitter = v }
            | _ ->
              Error
                (Printf.sprintf
                   "unknown fault key %S (allowed: drop, dup, reorder, \
                    jitter)"
                   key))))
  in
  Result.bind (List.fold_left parse (Ok spec_default) fields) check_spec

let spec_to_string s =
  (* dgmc-analyze: allow float-format — human-readable spec echo; specs are
     short hand-written probabilities, not computed schema values *)
  Printf.sprintf "drop=%g,dup=%g,reorder=%g,jitter=%g" s.drop s.duplicate
    s.reorder s.jitter

let spec_is_transparent s =
  s.drop = 0.0 && s.duplicate = 0.0 && s.reorder = 0.0 && s.jitter = 0.0

type counters = {
  transmissions : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  reordered : int;
  blocked_crash : int;
  blocked_partition : int;
}

(* The [faults.*] counters of the registry the plan is instrumented
   with, one handle per field of [counters]. *)
type counts = {
  transmissions : Metrics.Registry.counter;
  delivered : Metrics.Registry.counter;
  dropped : Metrics.Registry.counter;
  duplicated : Metrics.Registry.counter;
  reordered : Metrics.Registry.counter;
  blocked_crash : Metrics.Registry.counter;
  blocked_partition : Metrics.Registry.counter;
}

let counts metrics =
  let counter = Metrics.Registry.counter metrics in
  {
    transmissions = counter "faults.transmissions";
    delivered = counter "faults.delivered";
    dropped = counter "faults.dropped";
    duplicated = counter "faults.duplicated";
    reordered = counter "faults.reordered";
    blocked_crash = counter "faults.blocked_crash";
    blocked_partition = counter "faults.blocked_partition";
  }

type window = { w_from : float; w_until : float }

type t = {
  rng : Sim.Rng.t;
  plan_seed : int;
  spec : spec;
  mutable crashes : (int * window) list;
  mutable partitions : (bool array * window) list;
      (* membership is precomputed up to the largest id mentioned;
         switches beyond the array are outside the side *)
  mutable counts : counts;
  mutable sim_trace : Sim.Trace.t;
}

let create ~spec ~seed () =
  (match check_spec spec with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Faults.Plan.create: " ^ m));
  {
    rng = Sim.Rng.create seed;
    plan_seed = seed;
    spec;
    crashes = [];
    partitions = [];
    counts = counts Metrics.Registry.disabled;
    sim_trace = Sim.Trace.disabled;
  }

let instrument t engine =
  t.sim_trace <- Sim.Engine.trace engine;
  t.counts <- counts (Sim.Engine.metrics engine)

let window ~who ~from_ ~until =
  if not (from_ >= 0.0 && until >= from_ && until < infinity) then
    invalid_arg
      (* dgmc-analyze: allow float-format — human-readable error message *)
      (Printf.sprintf "Faults.Plan.%s: bad window [%g, %g)" who from_ until);
  { w_from = from_; w_until = until }

let crash_switch t ~switch ~from_ ~until =
  if switch < 0 then invalid_arg "Faults.Plan.crash_switch: negative switch";
  t.crashes <- (switch, window ~who:"crash_switch" ~from_ ~until) :: t.crashes

let partition t ~side ~from_ ~until =
  (match side with
  | [] -> invalid_arg "Faults.Plan.partition: empty side"
  | _ -> ());
  List.iter
    (fun s ->
      if s < 0 then invalid_arg "Faults.Plan.partition: negative switch")
    side;
  let hi = List.fold_left max 0 side in
  let membership = Array.make (hi + 1) false in
  List.iter (fun s -> membership.(s) <- true) side;
  t.partitions <-
    (membership, window ~who:"partition" ~from_ ~until) :: t.partitions

let[@inline] active w now = now >= w.w_from && now < w.w_until

(* Plain recursive walks, not [List.exists]: a transmission builds no
   closure to ask whether a window severs it. *)
let rec crashed sw now = function
  | [] -> false
  | (s, w) :: rest -> (s = sw && active w now) || crashed sw now rest

let[@inline] in_side membership sw =
  sw < Array.length membership && membership.(sw)

let rec separated a b now = function
  | [] -> false
  | (membership, w) :: rest ->
    (active w now && in_side membership a <> in_side membership b)
    || separated a b now rest

let traced t = Sim.Trace.enabled t.sim_trace

let reads_clock t =
  match (t.crashes, t.partitions) with
  | [], [] -> traced t
  | _ -> true

let emit t ~now ~src ~dst fault =
  ignore
    (Sim.Trace.emit t.sim_trace ~time:now (Fault_injected { src; dst; fault }))

(* Count one injected fault and trace it when the plan is traced.  A
   fault whose label is computed (a crash block's switch, a reorder's
   hold-back) tests [traced] itself, so an untraced plan never builds
   the label. *)
let note t counter ~now ~src ~dst label =
  Metrics.Registry.bump counter;
  if traced t then emit t ~now ~src ~dst label

let blocked_by_crash t ~now ~src ~dst who =
  Metrics.Registry.bump t.counts.blocked_crash;
  if traced t then
    emit t ~now ~src ~dst (Printf.sprintf "blocked(crash %d)" who);
  0

(* Write one copy's delay into [delays.(i)]: the base delay, plus its
   jitter draw when [jitter > 0], plus a reordering hold-back when the
   reorder draw fires. *)
let copy t ~now ~src ~dst ~base_delay delays i =
  let spec = t.spec in
  let d =
    base_delay
    +.
    if spec.jitter > 0.0 then Sim.Rng.float t.rng (spec.jitter *. base_delay)
    else 0.0
  in
  if spec.reorder > 0.0 && Sim.Rng.float t.rng 1.0 < spec.reorder then begin
    let extra = Sim.Rng.float t.rng (reorder_span *. base_delay) in
    Metrics.Registry.bump t.counts.reordered;
    if traced t then
      (* dgmc-analyze: allow float-format — human-readable trace label *)
      emit t ~now ~src ~dst (Printf.sprintf "reorder(+%g)" extra);
    delays.(i) <- d +. extra
  end
  else delays.(i) <- d

let transmit t ~src ~dst ~now ~base_delay delays =
  if not (base_delay > 0.0) then
    invalid_arg "Faults.Plan.transmit: base_delay must be positive";
  Metrics.Registry.bump t.counts.transmissions;
  if crashed src now t.crashes then blocked_by_crash t ~now ~src ~dst src
  else if crashed dst now t.crashes then blocked_by_crash t ~now ~src ~dst dst
  else if separated src dst now t.partitions then begin
    note t t.counts.blocked_partition ~now ~src ~dst "blocked(partition)";
    0
  end
  else begin
    let spec = t.spec in
    (* One probability draw per potential fault, in a fixed order, so
       the stream stays aligned across specs that differ only in their
       probabilities. *)
    let dropped = Sim.Rng.float t.rng 1.0 < spec.drop in
    let duplicated = Sim.Rng.float t.rng 1.0 < spec.duplicate in
    if dropped then begin
      note t t.counts.dropped ~now ~src ~dst "drop";
      0
    end
    else begin
      copy t ~now ~src ~dst ~base_delay delays 0;
      (* A constant [~by] argument is static data, so bumping a
         disabled registry's handle allocates nothing here. *)
      if duplicated then begin
        note t t.counts.duplicated ~now ~src ~dst "duplicate";
        copy t ~now ~src ~dst ~base_delay delays 1;
        Metrics.Registry.bump ~by:2 t.counts.delivered;
        2
      end
      else begin
        Metrics.Registry.bump t.counts.delivered;
        1
      end
    end
  end

let counters t : counters =
  let c = t.counts and count = Metrics.Registry.count in
  {
    transmissions = count c.transmissions;
    delivered = count c.delivered;
    dropped = count c.dropped;
    duplicated = count c.duplicated;
    reordered = count c.reordered;
    blocked_crash = count c.blocked_crash;
    blocked_partition = count c.blocked_partition;
  }

let crash_windows t =
  List.rev_map (fun (s, w) -> (s, (w.w_from, w.w_until))) t.crashes

let partition_windows t =
  List.rev_map
    (fun (membership, w) ->
      let side = ref [] in
      for s = Array.length membership - 1 downto 0 do
        if membership.(s) then side := s :: !side
      done;
      (!side, (w.w_from, w.w_until)))
    t.partitions
