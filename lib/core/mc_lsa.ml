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

let event_to_string = function
  | Join r -> "join:" ^ Member.role_to_string r
  | Leave -> "leave"
  | Link -> "link"
  | No_event -> "none"

let pp ppf t =
  Format.fprintf ppf "@[<h>mc-lsa(src=%d, %s, %a, %s, T=%a)@]" t.src
    (event_to_string t.event) Mc_id.pp t.mc
    (match t.proposal with Some _ -> "proposal" | None -> "no-proposal")
    Timestamp.pp t.stamp
