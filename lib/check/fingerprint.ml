(* These renderers run on every edge the model checker explores —
   hundreds of thousands of times per exploration — so everything is
   Buffer-based; Format would dominate the profile. *)

let add_int b i = Buffer.add_string b (string_of_int i)

let add_timestamp b ts =
  let n = Dgmc.Timestamp.size ts in
  Buffer.add_char b '(';
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char b ',';
    add_int b (Dgmc.Timestamp.get ts i)
  done;
  Buffer.add_char b ')'

let add_mc_id b (m : Dgmc.Mc_id.t) =
  Buffer.add_string b (Dgmc.Mc_id.kind_to_string m.kind);
  Buffer.add_char b '#';
  add_int b m.id

let add_members b m =
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char b ',';
      add_int b id;
      Buffer.add_char b ':';
      Buffer.add_string b
        (match Dgmc.Member.role m id with
        | Some r -> Dgmc.Member.role_to_string r
        | None -> "?"))
    (Dgmc.Member.ids m)

let add_tree b t = Buffer.add_string b (Mctree.Tree.fingerprint t)

let add_mc_lsa b (l : Dgmc.Mc_lsa.t) =
  Buffer.add_string b "mc(";
  add_int b l.src;
  Buffer.add_char b ',';
  Buffer.add_string b (Dgmc.Mc_lsa.event_to_string l.event);
  Buffer.add_char b ',';
  add_mc_id b l.mc;
  Buffer.add_char b ',';
  (match l.proposal with Some t -> add_tree b t | None -> Buffer.add_char b '-');
  Buffer.add_char b ',';
  (match l.members with
  | Some m -> add_members b m
  | None -> Buffer.add_char b '-');
  Buffer.add_char b ',';
  add_timestamp b l.stamp;
  Buffer.add_char b ')'

let add_link_event b (e : Lsr.Lsdb.link_event) =
  Buffer.add_string b "link(";
  add_int b e.u;
  Buffer.add_char b ',';
  add_int b e.v;
  Buffer.add_char b ',';
  Buffer.add_string b (string_of_bool e.up);
  Buffer.add_char b ',';
  add_int b e.version;
  Buffer.add_char b ')'

let add_graph_links b g =
  List.iteri
    (fun i ((e : Net.Graph.edge), up) ->
      if i > 0 then Buffer.add_char b ',';
      add_int b e.u;
      Buffer.add_char b '-';
      add_int b e.v;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_bool up))
    (Net.Graph.all_edges g)

let add_snapshot b (s : Dgmc.Switch.mc_snapshot) =
  add_mc_id b s.snap_mc;
  Buffer.add_string b "{r=";
  add_timestamp b s.snap_r;
  Buffer.add_string b ";e=";
  add_timestamp b s.snap_e;
  Buffer.add_string b ";c=";
  add_timestamp b s.snap_c;
  Buffer.add_string b ";f=";
  Buffer.add_string b (string_of_bool s.snap_flag);
  Buffer.add_string b ";m=";
  add_members b s.snap_members;
  Buffer.add_string b ";t=";
  add_tree b s.snap_topology;
  Buffer.add_string b ";seen=";
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add_int b x)
    (Dgmc.Timestamp.to_array s.snap_membership_seen);
  Buffer.add_string b ";box=[";
  List.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char b ';';
      add_mc_lsa b l)
    s.snap_mailbox;
  Buffer.add_string b "];comp=[";
  List.iteri
    (fun i ts ->
      if i > 0 then Buffer.add_char b ';';
      add_timestamp b ts)
    s.snap_computations;
  Buffer.add_string b "];trig=";
  (match s.snap_triggered with
  | Some ts -> add_timestamp b ts
  | None -> Buffer.add_char b '-');
  Buffer.add_char b '}'

let add_switch b sw =
  Buffer.add_string b "sw";
  add_int b (Dgmc.Switch.id sw);
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ' ';
      add_snapshot b s)
    (Dgmc.Switch.snapshots sw);
  Buffer.add_string b "|img=";
  add_graph_links b (Dgmc.Switch.image sw);
  (* Link versions behave (version-gated apply, resync deltas) even when
     the up/down flags above agree. *)
  Buffer.add_string b "|db=";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      add_link_event b ev)
    (Dgmc.Switch.lsdb_entries sw);
  (* Crash-recovery session: its id and outstanding neighbors gate which
     deltas apply, and deferred LSAs replay at finish. *)
  Buffer.add_string b "|rs=";
  (match Dgmc.Switch.resync_state sw with
  | None -> Buffer.add_char b '-'
  | Some (sid, outstanding) ->
    add_int b sid;
    Buffer.add_char b ':';
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_char b ',';
        add_int b p)
      outstanding);
  Buffer.add_string b "|defer=[";
  List.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char b ';';
      add_mc_lsa b l)
    (Dgmc.Switch.deferred_lsas sw);
  Buffer.add_string b "]]"

let via size f x =
  let b = Buffer.create size in
  f b x;
  Buffer.contents b

let members = via 32 add_members
let mc_id = via 16 add_mc_id
let mc_lsa = via 96 add_mc_lsa
let link_event = via 24 add_link_event
let graph_links = via 64 add_graph_links
