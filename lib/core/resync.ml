type mc_summary = {
  sum_mc : Mc_id.t;
  sum_r : Timestamp.t;
  sum_e : Timestamp.t;
  sum_c : Timestamp.t;
  sum_tree_fp : string;
}

type mc_export = {
  exp_mc : Mc_id.t;
  exp_r : Timestamp.t;
  exp_e : Timestamp.t;
  exp_c : Timestamp.t;
  exp_members : Member.t;
  exp_membership_seen : Timestamp.t;
  exp_topology : Mctree.Tree.t;
}

type msg =
  | Summary of {
      session : int;
      origin : int;
      links : Lsr.Lsdb.link_event list;
      mcs : mc_summary list;
    }
  | Delta of {
      session : int;
      origin : int;
      links : Lsr.Lsdb.link_event list;
      mcs : mc_export list;
    }

(* ------------------------------------------------------------------ *)
(* Equality (round-trip tests and harness dedup) *)

let equal_summary a b =
  Mc_id.equal a.sum_mc b.sum_mc
  && Timestamp.equal a.sum_r b.sum_r
  && Timestamp.equal a.sum_e b.sum_e
  && Timestamp.equal a.sum_c b.sum_c
  && String.equal a.sum_tree_fp b.sum_tree_fp

let equal_export a b =
  Mc_id.equal a.exp_mc b.exp_mc
  && Timestamp.equal a.exp_r b.exp_r
  && Timestamp.equal a.exp_e b.exp_e
  && Timestamp.equal a.exp_c b.exp_c
  && Member.equal a.exp_members b.exp_members
  && Timestamp.equal a.exp_membership_seen b.exp_membership_seen
  && Mctree.Tree.equal a.exp_topology b.exp_topology

let equal_link (a : Lsr.Lsdb.link_event) (b : Lsr.Lsdb.link_event) =
  a.u = b.u && a.v = b.v && Bool.equal a.up b.up && a.version = b.version

let equal a b =
  match (a, b) with
  | ( Summary { session = s1; origin = o1; links = l1; mcs = m1 },
      Summary { session = s2; origin = o2; links = l2; mcs = m2 } ) ->
    s1 = s2 && o1 = o2
    && List.equal equal_link l1 l2
    && List.equal equal_summary m1 m2
  | ( Delta { session = s1; origin = o1; links = l1; mcs = m1 },
      Delta { session = s2; origin = o2; links = l2; mcs = m2 } ) ->
    s1 = s2 && o1 = o2
    && List.equal equal_link l1 l2
    && List.equal equal_export m1 m2
  | Summary _, Delta _ | Delta _, Summary _ -> false

(* ------------------------------------------------------------------ *)
(* Wire codec.

   A compact line-oriented text format: one header line, then one line
   per link entry and per MC record.  No field contains a space — member
   lists render as [id:role,…], timestamps as comma-separated vectors,
   trees in {!Mctree.Tree.fingerprint} form — so lines split cleanly on
   single spaces.  The simulator passes [msg] values in memory; the codec
   is the compaction story (and the round-trip tests pin the format). *)

let stamp_to_string ts =
  let a = Timestamp.to_array ts in
  String.concat "," (Array.to_list (Array.map string_of_int a))

let stamp_of_string s =
  Timestamp.of_array
    (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))

let members_to_string m =
  match Member.ids m with
  | [] -> "-"
  | ids ->
    String.concat ","
      (List.map
         (fun id ->
           let role =
             match Member.role m id with
             | Some r -> Member.role_to_string r
             | None -> "?"
           in
           Printf.sprintf "%d:%s" id role)
         ids)

let role_of_string = function
  | "sender" -> Member.Sender
  | "receiver" -> Member.Receiver
  | "both" -> Member.Both
  | s -> failwith (Printf.sprintf "Resync: unknown role %S" s)

let members_of_string s =
  if String.equal s "-" then Member.empty
  else
    Member.of_list
      (List.map
         (fun entry ->
           match String.split_on_char ':' entry with
           | [ id; role ] -> (int_of_string id, role_of_string role)
           | _ -> failwith (Printf.sprintf "Resync: malformed member %S" entry))
         (String.split_on_char ',' s))

let kind_of_string = function
  | "symmetric" -> Mc_id.Symmetric
  | "receiver-only" -> Mc_id.Receiver_only
  | "asymmetric" -> Mc_id.Asymmetric
  | s -> failwith (Printf.sprintf "Resync: unknown MC kind %S" s)

let tree_of_string s =
  match Mctree.Tree.of_fingerprint s with
  | Some t -> t
  | None -> failwith (Printf.sprintf "Resync: malformed tree %S" s)

let to_string msg =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let links_lines links =
    List.iter
      (fun (ev : Lsr.Lsdb.link_event) ->
        line "link %d %d %s %d" ev.u ev.v (if ev.up then "up" else "down")
          ev.version)
      links
  in
  (match msg with
  | Summary { session; origin; links; mcs } ->
    line "summary %d %d" session origin;
    links_lines links;
    List.iter
      (fun s ->
        line "mc %s %d %s %s %s %s"
          (Mc_id.kind_to_string s.sum_mc.kind)
          s.sum_mc.id (stamp_to_string s.sum_r) (stamp_to_string s.sum_e)
          (stamp_to_string s.sum_c) s.sum_tree_fp)
      mcs
  | Delta { session; origin; links; mcs } ->
    line "delta %d %d" session origin;
    links_lines links;
    List.iter
      (fun e ->
        line "export %s %d %s %s %s %s %s %s"
          (Mc_id.kind_to_string e.exp_mc.kind)
          e.exp_mc.id (stamp_to_string e.exp_r) (stamp_to_string e.exp_e)
          (stamp_to_string e.exp_c)
          (stamp_to_string e.exp_membership_seen)
          (members_to_string e.exp_members)
          (Mctree.Tree.fingerprint e.exp_topology))
      mcs);
  Buffer.contents b

let of_string s =
  let parse () =
    let lines =
      String.split_on_char '\n' s
      |> List.filter (fun l -> String.length l > 0)
    in
    match lines with
    | [] -> failwith "Resync: empty message"
    | header :: body -> (
      let link_of = function
        | [ "link"; u; v; state; version ] ->
          let up =
            match state with
            | "up" -> true
            | "down" -> false
            | s -> failwith (Printf.sprintf "Resync: bad link state %S" s)
          in
          {
            Lsr.Lsdb.u = int_of_string u;
            v = int_of_string v;
            up;
            version = int_of_string version;
          }
        | _ -> failwith "Resync: malformed link line"
      in
      let split = String.split_on_char ' ' in
      match split header with
      | [ "summary"; session; origin ] ->
        let links, mcs =
          List.fold_left
            (fun (links, mcs) l ->
              match split l with
              | "link" :: _ as f -> (link_of f :: links, mcs)
              | [ "mc"; kind; id; r; e; c; fp ] ->
                ( links,
                  {
                    sum_mc = Mc_id.make (kind_of_string kind) (int_of_string id);
                    sum_r = stamp_of_string r;
                    sum_e = stamp_of_string e;
                    sum_c = stamp_of_string c;
                    sum_tree_fp = fp;
                  }
                  :: mcs )
              | _ -> failwith (Printf.sprintf "Resync: malformed line %S" l))
            ([], []) body
        in
        Summary
          {
            session = int_of_string session;
            origin = int_of_string origin;
            links = List.rev links;
            mcs = List.rev mcs;
          }
      | [ "delta"; session; origin ] ->
        let links, mcs =
          List.fold_left
            (fun (links, mcs) l ->
              match split l with
              | "link" :: _ as f -> (link_of f :: links, mcs)
              | [ "export"; kind; id; r; e; c; seen; members; tree ] ->
                ( links,
                  {
                    exp_mc = Mc_id.make (kind_of_string kind) (int_of_string id);
                    exp_r = stamp_of_string r;
                    exp_e = stamp_of_string e;
                    exp_c = stamp_of_string c;
                    exp_membership_seen = stamp_of_string seen;
                    exp_members = members_of_string members;
                    exp_topology = tree_of_string tree;
                  }
                  :: mcs )
              | _ -> failwith (Printf.sprintf "Resync: malformed line %S" l))
            ([], []) body
        in
        Delta
          {
            session = int_of_string session;
            origin = int_of_string origin;
            links = List.rev links;
            mcs = List.rev mcs;
          }
      | _ -> failwith "Resync: unknown message header")
  in
  try Ok (parse ()) with Failure m -> Error m
