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
(* Text rendering: one header line, then one line per link entry and
   per MC record.  No field contains a space — member lists render as
   [id:role,…], timestamps as comma-separated vectors, trees in
   {!Mctree.Tree.fingerprint} form.  The simulator passes [msg] values in
   memory; the model checker's harness fingerprints pooled messages by
   this text. *)

let stamp_to_string ts =
  let a = Timestamp.to_array ts in
  String.concat "," (Array.to_list (Array.map string_of_int a))

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
