type stamp = { size : int; nonzero : int array }

type event =
  | Lsa_originated of {
      switch : int;
      mc : string;
      seq : int;
      ev : string;
      proposal : bool;
      stamp : stamp;
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
  | Compute_started of { switch : int; mc : string; trigger : string; r : stamp }
  | Proposal_made of { switch : int; mc : string; withdrawn : bool; stamp : stamp }
  | Topology_installed of {
      switch : int;
      mc : string;
      r : stamp;
      e : stamp;
      c : stamp;
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

type reason = Fault | Link_down | Abandoned | Neighbor_down

let reasons = [| Fault; Link_down; Abandoned; Neighbor_down |]

let reason_name = function
  | Fault -> "fault"
  | Link_down -> "link-down"
  | Abandoned -> "abandoned"
  | Neighbor_down -> "neighbor-down"

(* ------------------------------------------------------------------ *)
(* The store *)

(* An entry's kind.  An int kind keeps its payload in the four int
   columns and its flag (a forward's [retransmit], a drop's reason, a
   suppression's [resumed]) in the kind itself; a boxed one keeps the
   whole event in the boxed column. *)
let k_forward = 0
let k_retransmit = 1
let k_deliver = 2
let k_drop = 3 (* plus the reason's index in [reasons]: 3 to 6 *)
let k_crash = 7
let k_recover = 8
let k_suppress = 9
let k_release = 10
let k_boxed = 11

let drop_kind reason =
  match reason with
  | Fault -> k_drop
  | Link_down -> k_drop + 1
  | Abandoned -> k_drop + 2
  | Neighbor_down -> k_drop + 3

(* The kind a drop with reason [name] is stored as: boxed when the
   reason is none of {!reasons}. *)
let rec drop_kind_of_name name i =
  if i = Array.length reasons then k_boxed
  else if String.equal (reason_name reasons.(i)) name then k_drop + i
  else drop_kind_of_name name (i + 1)

(* The event an int kind's slot holds. *)
let int_event k a b c d =
  if k <= k_retransmit then
    Lsa_forwarded
      { src = a; dst = b; origin = c; seq = d; retransmit = k = k_retransmit }
  else if k = k_deliver then
    Lsa_delivered { switch = a; source = b; origin = c; seq = d }
  else if k < k_crash then
    Lsa_dropped
      {
        src = a;
        dst = b;
        origin = c;
        seq = d;
        reason = reason_name reasons.(k - k_drop);
      }
  else if k = k_crash then Crash { switch = a }
  else if k = k_recover then Recover { switch = a }
  else Link_suppressed { switch = a; peer = b; resumed = k = k_release }

(* A chunk holds [chunk_size] entries (fewer when [cap] is smaller),
   one array per column: [ids], [parents], [kinds] and [times] for
   every entry, [a]–[d] for an int kind's payload, and [boxed] for a
   boxed one ([vacant] otherwise). *)
type chunk = {
  ids : int array;
  parents : int array;
  kinds : int array;
  times : Float.Array.t;
  a : int array;
  b : int array;
  c : int array;
  d : int array;
  boxed : event array;
}

(* Slot [s] of the store is entry [s land chunk_mask] of chunk
   [s lsr chunk_bits].  The store starts with no chunk and takes a new
   one each time the entries reach its end, so it grows without ever
   copying an entry, and holds at most one chunk it does not fill.
   Once [cap] entries are retained the slots form a ring whose oldest
   is [start]. *)
type t = {
  on : bool;  (* [false] only for {!disabled} *)
  cap : int;
  mutable chunks : chunk array;
  mutable start : int;
  mutable len : int;
  mutable next_id : int;
  mutable evicted : int;
  mutable ctx : int;
}

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

let vacant = Note { category = ""; message = "" }

let default_cap = 1_000_000

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

let make ~on ~cap =
  {
    on;
    cap;
    chunks = [||];
    start = 0;
    len = 0;
    next_id = 0;
    evicted = 0;
    ctx = -1;
  }

let create ?(cap = default_cap) () =
  if cap < 1 then invalid_arg "Trace.create: cap must be positive";
  make ~on:true ~cap

let disabled = make ~on:false ~cap:1

let enabled t = t.on

let chunk n =
  {
    ids = Array.make n 0;
    parents = Array.make n 0;
    kinds = Array.make n 0;
    times = Float.Array.create n;
    a = Array.make n 0;
    b = Array.make n 0;
    c = Array.make n 0;
    d = Array.make n 0;
    boxed = Array.make n vacant;
  }

(* The slot of a new entry: the next free one until [cap] entries are
   retained, then the oldest, evicted. *)
let claim t =
  let s = t.len in
  if s < t.cap then begin
    if s lsr chunk_bits = Array.length t.chunks then
      t.chunks <- Array.append t.chunks [| chunk (min chunk_size (t.cap - s)) |];
    t.len <- s + 1;
    s
  end
  else begin
    let s = t.start in
    t.start <- (if s + 1 = t.cap then 0 else s + 1);
    t.evicted <- t.evicted + 1;
    t.chunks.(s lsr chunk_bits).boxed.(s land chunk_mask) <- vacant;
    s
  end

(* Assign the next id and retain the entry in a claimed slot.  An int
   kind passes [vacant] as its [event], which the slot already holds; a
   boxed one passes zeros as its payload. *)
let put t ~time ~parent kind a b c d event =
  let id = t.next_id in
  t.next_id <- id + 1;
  let s = claim t in
  let ch = t.chunks.(s lsr chunk_bits) and i = s land chunk_mask in
  ch.ids.(i) <- id;
  ch.parents.(i) <- parent;
  ch.kinds.(i) <- kind;
  Float.Array.set ch.times i time;
  ch.a.(i) <- a;
  ch.b.(i) <- b;
  ch.c.(i) <- c;
  ch.d.(i) <- d;
  if kind = k_boxed then ch.boxed.(i) <- event;
  id

let put_ints t ~time ~parent kind a b c d =
  put t ~time ~parent kind a b c d vacant

let put_boxed t ~time ~parent event =
  put t ~time ~parent k_boxed 0 0 0 0 event

(* ------------------------------------------------------------------ *)
(* Emission *)

let emit t ~time ?parent event =
  if not t.on then -1
  else
    let parent = match parent with Some p -> p | None -> t.ctx in
    match event with
    | Lsa_forwarded { src; dst; origin; seq; retransmit } ->
      put_ints t ~time ~parent
        (if retransmit then k_retransmit else k_forward)
        src dst origin seq
    | Lsa_delivered { switch; source; origin; seq } ->
      put_ints t ~time ~parent k_deliver switch source origin seq
    | Lsa_dropped { src; dst; origin; seq; reason } -> (
      match drop_kind_of_name reason 0 with
      | k when k = k_boxed -> put_boxed t ~time ~parent event
      | k -> put_ints t ~time ~parent k src dst origin seq)
    | Crash { switch } -> put_ints t ~time ~parent k_crash switch 0 0 0
    | Recover { switch } -> put_ints t ~time ~parent k_recover switch 0 0 0
    | Link_suppressed { switch; peer; resumed } ->
      put_ints t ~time ~parent
        (if resumed then k_release else k_suppress)
        switch peer 0 0
    | Lsa_originated _ | Compute_started _ | Proposal_made _
    | Topology_installed _ | Fault_injected _ | Resync _ | Link_detected _
    | Note _ ->
      put_boxed t ~time ~parent event

let[@inline] parent_or_context t parent = if parent >= 0 then parent else t.ctx

let forward t ~time ~parent ~src ~dst ~origin ~seq ~retransmit =
  if not t.on then -1
  else
    put_ints t ~time
      ~parent:(parent_or_context t parent)
      (if retransmit then k_retransmit else k_forward)
      src dst origin seq

let deliver t ~time ~parent ~switch ~source ~origin ~seq =
  if not t.on then -1
  else
    put_ints t ~time
      ~parent:(parent_or_context t parent)
      k_deliver switch source origin seq

let drop t ~time ~parent ~src ~dst ~origin ~seq reason =
  if t.on then
    ignore
      (put_ints t ~time
         ~parent:(parent_or_context t parent)
         (drop_kind reason) src dst origin seq)

let context t = t.ctx

let set_context t id =
  let saved = t.ctx in
  if id >= 0 then t.ctx <- id;
  saved

let restore_context t saved = if t.ctx <> saved then t.ctx <- saved

let record t ~time ~category message =
  if enabled t then ignore (emit t ~time (Note { category; message }))

let recordf t ~time ~category fmt =
  if enabled t then
    Format.kasprintf (fun message -> record t ~time ~category message) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

(* ------------------------------------------------------------------ *)
(* Accessors *)

(* Retained entry [n], oldest first. *)
let nth t n =
  let s = (t.start + n) mod t.cap in
  let ch = t.chunks.(s lsr chunk_bits) and i = s land chunk_mask in
  let k = ch.kinds.(i) in
  {
    id = ch.ids.(i);
    parent = ch.parents.(i);
    time = Float.Array.get ch.times i;
    event =
      (if k = k_boxed then ch.boxed.(i)
       else int_event k ch.a.(i) ch.b.(i) ch.c.(i) ch.d.(i));
  }

let entries t = List.init t.len (nth t)

let count t = t.len

let emitted t = t.next_id

let dropped t = t.evicted

(* ------------------------------------------------------------------ *)
(* Human rendering *)

(* [f i x] for each component [i] of the stamp's dense view. *)
let iter_dense f { size; nonzero } =
  let j = ref 0 in
  for i = 0 to size - 1 do
    if !j < Array.length nonzero && nonzero.(!j) = i then begin
      f i nonzero.(!j + 1);
      j := !j + 2
    end
    else f i 0
  done

let pp_vec ppf v =
  Format.pp_print_char ppf '[';
  iter_dense
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
  iter_dense
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

let write_jsonl t oc = output_string oc (to_jsonl t)

type archive = { a_emitted : int; a_dropped : int; a_entries : entry list }

let get name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing or ill-typed field %S" name)

(* A dense vector, read into its canonical sparse stamp: the nonzero
   components only, in ascending order. *)
let get_stamp name json =
  let items = get name Json.to_list json in
  let nonzero =
    List.concat
      (List.mapi
         (fun i j ->
           match Json.to_int j with
           | Some 0 -> []
           | Some x -> [ i; x ]
           | None -> failwith (Printf.sprintf "non-integer in vector %S" name))
         items)
  in
  { size = List.length items; nonzero = Array.of_list nonzero }

let event_of_json json =
  let int n = get n Json.to_int json
  and str n = get n Json.to_string json
  and bool n = get n Json.to_bool json
  and vec n = get_stamp n json in
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
