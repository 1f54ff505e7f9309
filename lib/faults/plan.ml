type spec = {
  drop : float;
  duplicate : float;
  reorder : float;
  reorder_span : float;
  jitter : float;
}

let spec_default =
  { drop = 0.0; duplicate = 0.0; reorder = 0.0; reorder_span = 4.0; jitter = 0.0 }

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
  let* () = non_neg "span" s.reorder_span in
  let* () = non_neg "jitter" s.jitter in
  Ok s

let spec_of_string text =
  let fields =
    String.split_on_char ',' text
    |> List.concat_map (String.split_on_char ';')
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
            | "dup" | "duplicate" -> Ok { spec with duplicate = v }
            | "reorder" -> Ok { spec with reorder = v }
            | "jitter" -> Ok { spec with jitter = v }
            | "span" -> Ok { spec with reorder_span = v }
            | _ ->
              Error
                (Printf.sprintf
                   "unknown fault key %S (allowed: drop, dup, reorder, \
                    jitter, span)"
                   key))))
  in
  Result.bind (List.fold_left parse (Ok spec_default) fields) check_spec

let spec_to_string s =
  (* dgmc-analyze: allow float-format — human-readable spec echo; specs are
     short hand-written probabilities, not computed schema values *)
  Printf.sprintf "drop=%g,dup=%g,reorder=%g,jitter=%g,span=%g" s.drop
    s.duplicate s.reorder s.jitter s.reorder_span

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

type fault_kind =
  | Drop
  | Duplicate
  | Reorder of float
  | Crash_block of int
  | Partition_block

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

let create ?(spec = spec_default) ~seed () =
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

let quiescent_after t =
  let close acc (_, w) = Float.max acc w.w_until in
  List.fold_left close (List.fold_left close 0.0 t.crashes) t.partitions

let active w now = now >= w.w_from && now < w.w_until

let crashed t sw now =
  List.exists (fun (s, w) -> s = sw && active w now) t.crashes

let separated t a b now =
  let in_side membership sw =
    sw < Array.length membership && membership.(sw)
  in
  List.exists
    (fun (membership, w) ->
      active w now && in_side membership a <> in_side membership b)
    t.partitions

let fault_label = function
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  (* dgmc-analyze: allow float-format — human-readable trace label *)
  | Reorder extra -> Printf.sprintf "reorder(+%g)" extra
  | Crash_block who -> Printf.sprintf "blocked(crash %d)" who
  | Partition_block -> "blocked(partition)"

let counter_of_fault c = function
  | Drop -> c.dropped
  | Duplicate -> c.duplicated
  | Reorder _ -> c.reordered
  | Crash_block _ -> c.blocked_crash
  | Partition_block -> c.blocked_partition

let record t ~now ~src ~dst fault =
  Metrics.Registry.bump (counter_of_fault t.counts fault);
  if Sim.Trace.enabled t.sim_trace then
    ignore
      (Sim.Trace.emit t.sim_trace ~time:now
         (Fault_injected { src; dst; fault = fault_label fault }))

let transmit t ~src ~dst ~now ~base_delay =
  if not (base_delay > 0.0) then
    invalid_arg "Faults.Plan.transmit: base_delay must be positive";
  Metrics.Registry.bump t.counts.transmissions;
  if crashed t src now || crashed t dst now then begin
    let who = if crashed t src now then src else dst in
    record t ~now ~src ~dst (Crash_block who);
    []
  end
  else if separated t src dst now then begin
    record t ~now ~src ~dst Partition_block;
    []
  end
  else begin
    let spec = t.spec in
    (* One probability draw per potential fault, in a fixed order, so
       the stream stays aligned across specs that differ only in their
       probabilities. *)
    let draw () = Sim.Rng.float t.rng 1.0 in
    let dropped = draw () < spec.drop in
    let duplicated = draw () < spec.duplicate in
    if dropped then begin
      record t ~now ~src ~dst Drop;
      []
    end
    else begin
      let copy () =
        let d =
          if spec.jitter > 0.0 then
            base_delay +. Sim.Rng.float t.rng (spec.jitter *. base_delay)
          else base_delay
        in
        if spec.reorder > 0.0 && draw () < spec.reorder then begin
          let extra =
            if spec.reorder_span > 0.0 then
              Sim.Rng.float t.rng (spec.reorder_span *. base_delay)
            else 0.0
          in
          record t ~now ~src ~dst (Reorder extra);
          d +. extra
        end
        else d
      in
      (* A constant [~by] argument is static data, so bumping a
         disabled registry's handle allocates nothing here. *)
      let first = copy () in
      if duplicated then begin
        record t ~now ~src ~dst Duplicate;
        let second = copy () in
        Metrics.Registry.bump ~by:2 t.counts.delivered;
        [ first; second ]
      end
      else begin
        Metrics.Registry.bump t.counts.delivered;
        [ first ]
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
