type event =
  | Lsa_originated of {
      switch : int;
      mc : string;
      seq : int;
      ev : string;
      proposal : bool;
      stamp : int array;
    }
  | Lsa_forwarded of {
      src : int;
      dst : int;
      origin : int;
      seq : int;
      retransmit : bool;
    }
  | Lsa_delivered of { switch : int; source : int; origin : int; seq : int }
  | Lsa_dropped of { src : int; dst : int; origin : int; seq : int; reason : string }
  | Compute_started of { switch : int; mc : string; trigger : string; r : int array }
  | Proposal_made of { switch : int; mc : string; withdrawn : bool; stamp : int array }
  | Topology_installed of {
      switch : int;
      mc : string;
      r : int array;
      e : int array;
      c : int array;
      members : string;
      tree : string;
    }
  | Fault_injected of { src : int; dst : int; fault : string }
  | Crash of { switch : int }
  | Recover of { switch : int }
  | Resync of { switch : int; peer : int; mc : string }
  | Link_detected of {
      switch : int;
      peer : int;
      up : bool;
      latency : float;
      spurious : bool;
    }
  | Link_suppressed of { switch : int; peer : int; resumed : bool }
  | Note of { category : string; message : string }

type entry = { id : int; parent : int; time : float; event : event }

type t = {
  on : bool;  (* [false] only for {!disabled} *)
  cap : int;
  cats : string list option;
  mutable buf : entry array;
  mutable start : int;  (* index of the oldest retained entry *)
  mutable len : int;
  mutable next_id : int;
  mutable evicted : int;
  mutable ctx : int;
}

let default_cap = 1_000_000

let create ?(cap = default_cap) ?cats () =
  if cap < 1 then invalid_arg "Trace.create: cap must be positive";
  {
    on = true;
    cap;
    cats;
    buf = [||];
    start = 0;
    len = 0;
    next_id = 0;
    evicted = 0;
    ctx = -1;
  }

let disabled =
  {
    on = false;
    cap = 1;
    cats = None;
    buf = [||];
    start = 0;
    len = 0;
    next_id = 0;
    evicted = 0;
    ctx = -1;
  }

let enabled t = t.on

let category = function
  | Lsa_originated _ -> "flood"
  | Lsa_forwarded _ -> "forward"
  | Lsa_delivered _ -> "deliver"
  | Lsa_dropped _ -> "drop"
  | Compute_started _ -> "compute"
  | Proposal_made _ -> "proposal"
  | Topology_installed _ -> "install"
  | Fault_injected _ -> "fault"
  | Crash _ -> "crash"
  | Recover _ -> "recover"
  | Resync _ -> "resync"
  | Link_detected _ -> "detect"
  | Link_suppressed _ -> "suppress"
  | Note n -> n.category

(* ------------------------------------------------------------------ *)
(* Human rendering *)

let pp_vec ppf v =
  Format.pp_print_char ppf '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Format.pp_print_char ppf ' ';
      Format.pp_print_int ppf x)
    v;
  Format.pp_print_char ppf ']'

let message = function
  | Lsa_originated { switch; mc; seq; ev; proposal; stamp } ->
    Format.asprintf "switch %d originates lsa seq=%d%s ev=%s%s stamp=%a" switch
      seq
      (if String.equal mc "" then "" else " mc=" ^ mc)
      ev
      (if proposal then " +proposal" else "")
      pp_vec stamp
  | Lsa_forwarded { src; dst; origin; seq; retransmit } ->
    Format.asprintf "%d->%d lsa %d/%d%s" src dst origin seq
      (if retransmit then " (retransmit)" else "")
  | Lsa_delivered { switch; source; origin; seq } ->
    Format.asprintf "switch %d receives lsa %d/%d from %d" switch origin seq
      source
  | Lsa_dropped { src; dst; origin; seq; reason } ->
    Format.asprintf "%d->%d lsa %d/%d lost (%s)" src dst origin seq reason
  | Compute_started { switch; mc; trigger; r } ->
    Format.asprintf "switch %d computes mc=%s on %s r=%a" switch mc trigger
      pp_vec r
  | Proposal_made { switch; mc; withdrawn; stamp } ->
    Format.asprintf "switch %d %s mc=%s stamp=%a" switch
      (if withdrawn then "withdraws proposal" else "proposes tree")
      mc pp_vec stamp
  | Topology_installed { switch; mc; r; e; c; members; tree } ->
    Format.asprintf "switch %d installs mc=%s r=%a e=%a c=%a members=%s tree=%s"
      switch mc pp_vec r pp_vec e pp_vec c members tree
  | Fault_injected { src; dst; fault } ->
    Format.asprintf "fault %s on %d->%d" fault src dst
  | Crash { switch } -> Format.asprintf "switch %d crashes" switch
  | Recover { switch } -> Format.asprintf "switch %d recovers" switch
  | Resync { switch; peer; mc } ->
    Format.asprintf "switch %d resyncs mc=%s from %d" switch mc peer
  | Link_detected { switch; peer; up; latency; spurious } ->
    Format.asprintf "switch %d detects link %d-%d %s%s" switch switch peer
      (if up then "up" else "down")
      (if spurious then " (spurious)"
       else
         (* dgmc-analyze: allow float-format — human-readable timeline view *)
         Printf.sprintf " (latency %gs)" latency)
  | Link_suppressed { switch; peer; resumed } ->
    Format.asprintf "switch %d %s link %d-%d" switch
      (if resumed then "releases" else "suppresses")
      switch peer
  | Note n -> n.message

let pp_entry ppf e =
  (* dgmc-analyze: allow float-format — human-readable timeline view; the
     trace JSON writer emits times via Json.number *)
  Format.fprintf ppf "[%12.6f] #%-5d %s%-10s %s" e.time e.id
    (if e.parent >= 0 then Printf.sprintf "<-#%-5d " e.parent else "         ")
    (category e.event) (message e.event)

(* ------------------------------------------------------------------ *)
(* Emission *)

let retains t ev =
  match t.cats with
  | None -> true
  | Some cats -> List.exists (String.equal (category ev)) cats

let push t e =
  let capacity = Array.length t.buf in
  if t.len < t.cap then begin
    (* Still growing: [start] is 0 and entries are densely packed. *)
    if t.len = capacity then begin
      let grown = Array.make (min t.cap (max 256 (2 * capacity))) e in
      Array.blit t.buf 0 grown 0 t.len;
      t.buf <- grown
    end;
    t.buf.(t.len) <- e;
    t.len <- t.len + 1
  end
  else begin
    (* Full: overwrite the oldest. [capacity = cap] from the growth rule. *)
    t.buf.(t.start) <- e;
    t.start <- (t.start + 1) mod capacity;
    t.evicted <- t.evicted + 1
  end

let emit t ~time ?parent event =
  if not (enabled t) then -1
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match parent with Some p -> p | None -> t.ctx in
    let e = { id; parent; time; event } in
    if retains t event then push t e;
    id
  end

let context t = t.ctx

let with_context t id f =
  if id < 0 then f ()
  else begin
    let saved = t.ctx in
    t.ctx <- id;
    match f () with
    | v ->
      t.ctx <- saved;
      v
    | exception exn ->
      t.ctx <- saved;
      raise exn
  end

let record t ~time ~category message =
  if enabled t then ignore (emit t ~time (Note { category; message }))

let recordf t ~time ~category fmt =
  if enabled t then
    Format.kasprintf (fun message -> record t ~time ~category message) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

(* ------------------------------------------------------------------ *)
(* Accessors *)

let nth t i = t.buf.((t.start + i) mod Array.length t.buf)

let entries t = List.init t.len (nth t)

let count t = t.len

let emitted t = t.next_id

let dropped t = t.evicted

(* ------------------------------------------------------------------ *)
(* JSONL: schema dgmc-trace/1 *)

let schema = "dgmc-trace/1"

let field_int b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":";
  Buffer.add_string b (string_of_int v)

let field_str b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":\"";
  Buffer.add_string b (Json.escape v);
  Buffer.add_char b '"'

let field_bool b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b (if v then "\":true" else "\":false")

let field_vec b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":[";
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int x))
    v;
  Buffer.add_char b ']'

let add_event b = function
  | Lsa_originated { switch; mc; seq; ev; proposal; stamp } ->
    field_str b "kind" "lsa-originated";
    field_int b "switch" switch;
    field_str b "mc" mc;
    field_int b "seq" seq;
    field_str b "ev" ev;
    field_bool b "proposal" proposal;
    field_vec b "stamp" stamp
  | Lsa_forwarded { src; dst; origin; seq; retransmit } ->
    field_str b "kind" "lsa-forwarded";
    field_int b "src" src;
    field_int b "dst" dst;
    field_int b "origin" origin;
    field_int b "seq" seq;
    field_bool b "retransmit" retransmit
  | Lsa_delivered { switch; source; origin; seq } ->
    field_str b "kind" "lsa-delivered";
    field_int b "switch" switch;
    field_int b "source" source;
    field_int b "origin" origin;
    field_int b "seq" seq
  | Lsa_dropped { src; dst; origin; seq; reason } ->
    field_str b "kind" "lsa-dropped";
    field_int b "src" src;
    field_int b "dst" dst;
    field_int b "origin" origin;
    field_int b "seq" seq;
    field_str b "reason" reason
  | Compute_started { switch; mc; trigger; r } ->
    field_str b "kind" "compute-started";
    field_int b "switch" switch;
    field_str b "mc" mc;
    field_str b "trigger" trigger;
    field_vec b "r" r
  | Proposal_made { switch; mc; withdrawn; stamp } ->
    field_str b "kind" "proposal-made";
    field_int b "switch" switch;
    field_str b "mc" mc;
    field_bool b "withdrawn" withdrawn;
    field_vec b "stamp" stamp
  | Topology_installed { switch; mc; r; e; c; members; tree } ->
    field_str b "kind" "topology-installed";
    field_int b "switch" switch;
    field_str b "mc" mc;
    field_vec b "r" r;
    field_vec b "e" e;
    field_vec b "c" c;
    field_str b "members" members;
    field_str b "tree" tree
  | Fault_injected { src; dst; fault } ->
    field_str b "kind" "fault-injected";
    field_int b "src" src;
    field_int b "dst" dst;
    field_str b "fault" fault
  | Crash { switch } ->
    field_str b "kind" "crash";
    field_int b "switch" switch
  | Recover { switch } ->
    field_str b "kind" "recover";
    field_int b "switch" switch
  | Resync { switch; peer; mc } ->
    field_str b "kind" "resync";
    field_int b "switch" switch;
    field_int b "peer" peer;
    field_str b "mc" mc
  | Link_detected { switch; peer; up; latency; spurious } ->
    field_str b "kind" "link-detected";
    field_int b "switch" switch;
    field_int b "peer" peer;
    field_bool b "up" up;
    Buffer.add_string b ",\"latency\":";
    Buffer.add_string b (Json.number latency);
    field_bool b "spurious" spurious
  | Link_suppressed { switch; peer; resumed } ->
    field_str b "kind" "link-suppressed";
    field_int b "switch" switch;
    field_int b "peer" peer;
    field_bool b "resumed" resumed
  | Note { category; message } ->
    field_str b "kind" "note";
    field_str b "cat" category;
    field_str b "msg" message

let to_jsonl t =
  let b = Buffer.create (256 * (t.len + 1)) in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":\"%s\",\"emitted\":%d,\"dropped\":%d}\n" schema
       (emitted t) (dropped t));
  for i = 0 to t.len - 1 do
    let e = nth t i in
    Buffer.add_string b "{\"id\":";
    Buffer.add_string b (string_of_int e.id);
    Buffer.add_string b ",\"parent\":";
    Buffer.add_string b (string_of_int e.parent);
    Buffer.add_string b ",\"t\":";
    Buffer.add_string b (Json.number e.time);
    add_event b e.event;
    Buffer.add_string b "}\n"
  done;
  Buffer.contents b

let write_jsonl t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl t))

type archive = { a_emitted : int; a_dropped : int; a_entries : entry list }

let get name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing or ill-typed field %S" name)

let get_vec name json =
  let items = get name Json.to_list json in
  Array.of_list
    (List.map
       (fun j ->
         match Json.to_int j with
         | Some x -> x
         | None -> failwith (Printf.sprintf "non-integer in vector %S" name))
       items)

let event_of_json json =
  let int n = get n Json.to_int json
  and str n = get n Json.to_string json
  and bool n = get n Json.to_bool json
  and vec n = get_vec n json in
  match get "kind" Json.to_string json with
  | "lsa-originated" ->
    Lsa_originated
      {
        switch = int "switch";
        mc = str "mc";
        seq = int "seq";
        ev = str "ev";
        proposal = bool "proposal";
        stamp = vec "stamp";
      }
  | "lsa-forwarded" ->
    Lsa_forwarded
      {
        src = int "src";
        dst = int "dst";
        origin = int "origin";
        seq = int "seq";
        retransmit = bool "retransmit";
      }
  | "lsa-delivered" ->
    Lsa_delivered
      {
        switch = int "switch";
        source = int "source";
        origin = int "origin";
        seq = int "seq";
      }
  | "lsa-dropped" ->
    Lsa_dropped
      {
        src = int "src";
        dst = int "dst";
        origin = int "origin";
        seq = int "seq";
        reason = str "reason";
      }
  | "compute-started" ->
    Compute_started
      { switch = int "switch"; mc = str "mc"; trigger = str "trigger"; r = vec "r" }
  | "proposal-made" ->
    Proposal_made
      {
        switch = int "switch";
        mc = str "mc";
        withdrawn = bool "withdrawn";
        stamp = vec "stamp";
      }
  | "topology-installed" ->
    Topology_installed
      {
        switch = int "switch";
        mc = str "mc";
        r = vec "r";
        e = vec "e";
        c = vec "c";
        members = str "members";
        tree = str "tree";
      }
  | "fault-injected" ->
    Fault_injected { src = int "src"; dst = int "dst"; fault = str "fault" }
  | "crash" -> Crash { switch = int "switch" }
  | "recover" -> Recover { switch = int "switch" }
  | "resync" -> Resync { switch = int "switch"; peer = int "peer"; mc = str "mc" }
  | "link-detected" ->
    Link_detected
      {
        switch = int "switch";
        peer = int "peer";
        up = bool "up";
        latency = get "latency" Json.to_float json;
        spurious = bool "spurious";
      }
  | "link-suppressed" ->
    Link_suppressed
      { switch = int "switch"; peer = int "peer"; resumed = bool "resumed" }
  | "note" -> Note { category = str "cat"; message = str "msg" }
  | kind -> failwith (Printf.sprintf "unknown event kind %S" kind)

let of_jsonl text =
  (* Blank lines are skipped but still counted: errors name the
     physical line. *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> not (String.equal (String.trim l) ""))
  in
  match lines with
  | [] -> Error "empty trace"
  | (header_line, header) :: rest -> (
    let parse_line lineno line k =
      match Json.parse line with
      | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      | Ok json -> (
        match k json with
        | v -> Ok v
        | exception Failure e -> Error (Printf.sprintf "line %d: %s" lineno e))
    in
    let header_result =
      parse_line header_line header (fun json ->
          let s = get "schema" Json.to_string json in
          if not (String.equal s schema) then
            failwith (Printf.sprintf "unsupported schema %S (want %S)" s schema);
          (get "emitted" Json.to_int json, get "dropped" Json.to_int json))
    in
    match header_result with
    | Error _ as e -> e
    | Ok (a_emitted, a_dropped) -> (
      let rec go acc = function
        | [] -> Ok { a_emitted; a_dropped; a_entries = List.rev acc }
        | (lineno, line) :: rest -> (
          let entry =
            parse_line lineno line (fun json ->
                {
                  id = get "id" Json.to_int json;
                  parent = get "parent" Json.to_int json;
                  time = get "t" Json.to_float json;
                  event = event_of_json json;
                })
          in
          match entry with
          | Error _ as e -> e
          | Ok e -> go (e :: acc) rest)
      in
      go [] rest))

let read_jsonl ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_jsonl text
  | exception Sys_error e -> Error e
