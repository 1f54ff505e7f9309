type event = Join of Member.role | Leave | Link | No_event

type t = {
  src : int;
  event : event;
  mc : Mc_id.t;
  proposal : Mctree.Tree.t option;
  members : Member.t option;
  stamp : Timestamp.t;
}

let make ~src ~event ~mc ?proposal ?members ~stamp () =
  { src; event; mc; proposal; members; stamp }

let is_event t =
  match t.event with Join _ | Leave | Link -> true | No_event -> false

let is_membership_event t =
  match t.event with Join _ | Leave -> true | Link | No_event -> false

(* One constant string per event, so rendering one allocates nothing. *)
let event_to_string = function
  | Join Sender -> "join:sender"
  | Join Receiver -> "join:receiver"
  | Join Both -> "join:both"
  | Leave -> "leave"
  | Link -> "link"
  | No_event -> "none"

(* "swI<verb>EVENT from S seq N" at the start of a [Bytes] with [extra]
   bytes left after it. *)
let note ~switch verb ~src ~seq ~extra event =
  let event = event_to_string event in
  let b =
    Bytes.create
      (13 + Sim.Render.int_width switch + String.length verb
      + String.length event + Sim.Render.int_width src
      + Sim.Render.int_width seq + extra)
  in
  let pos = Sim.Render.put_string b 0 "sw" in
  let pos = Sim.Render.put_int b pos switch in
  let pos = Sim.Render.put_string b pos verb in
  let pos = Sim.Render.put_string b pos event in
  let pos = Sim.Render.put_string b pos " from " in
  let pos = Sim.Render.put_int b pos src in
  let pos = Sim.Render.put_string b pos " seq " in
  ignore (Sim.Render.put_int b pos seq : int);
  b

let applies_note ~switch ~src ~seq event =
  Bytes.unsafe_to_string (note ~switch " applies " ~src ~seq ~extra:0 event)

let skips_note ~switch ~src ~seq ~seen event =
  let extra = 8 + Sim.Render.int_width seen in
  let b = note ~switch " SKIPS stale " ~src ~seq ~extra event in
  let pos = Sim.Render.put_string b (Bytes.length b - extra) " (seen " in
  Bytes.set b (Sim.Render.put_int b pos seen) ')';
  Bytes.unsafe_to_string b

let pp ppf t =
  Format.fprintf ppf "@[<h>mc-lsa(src=%d, %s, %a, %s, T=%a)@]" t.src
    (event_to_string t.event) Mc_id.pp t.mc
    (match t.proposal with Some _ -> "proposal" | None -> "no-proposal")
    Timestamp.pp t.stamp
