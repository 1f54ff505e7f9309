type action =
  | Join of { switch : int; mc : Dgmc.Mc_id.t; role : Dgmc.Member.role }
  | Leave of { switch : int; mc : Dgmc.Mc_id.t }
  | Link_down of int * int
  | Link_up of int * int

type t = { time : float; action : action }

let sort list = List.stable_sort (fun a b -> Float.compare a.time b.time) list

let count = List.length

let span = function
  | [] | [ _ ] -> 0.0
  | list ->
    let times = List.map (fun e -> e.time) list in
    List.fold_left Float.max neg_infinity times
    -. List.fold_left Float.min infinity times

let apply_dgmc net list =
  List.iter
    (fun e ->
      match e.action with
      | Join { switch; mc; role } ->
        Dgmc.Protocol.schedule_join net ~at:e.time ~switch mc role
      | Leave { switch; mc } -> Dgmc.Protocol.schedule_leave net ~at:e.time ~switch mc
      | Link_down (u, v) -> Dgmc.Protocol.schedule_link_down net ~at:e.time u v
      | Link_up (u, v) -> Dgmc.Protocol.schedule_link_up net ~at:e.time u v)
    list

let pp ppf e =
  let describe =
    match e.action with
    | Join { switch; mc; role } ->
      Format.asprintf "join switch=%d %a (%s)" switch Dgmc.Mc_id.pp mc
        (Dgmc.Member.role_to_string role)
    | Leave { switch; mc } -> Format.asprintf "leave switch=%d %a" switch Dgmc.Mc_id.pp mc
    | Link_down (u, v) -> Printf.sprintf "link-down (%d, %d)" u v
    | Link_up (u, v) -> Printf.sprintf "link-up (%d, %d)" u v
  in
  (* dgmc-analyze: allow float-format — human-readable event listing *)
  Format.fprintf ppf "@[<h>[%g] %s@]" e.time describe

(* Shape replay: (mc id, switch) memberships and (u, v) down links with
   u < v, as persistent sets so a search can branch on any prefix. *)
module Pairs = Set.Make (struct
  type t = int * int

  let compare (a, b) (c, d) =
    match Int.compare a c with 0 -> Int.compare b d | n -> n
end)

type shape = { members : Pairs.t; down : Pairs.t }

type misstep = Join_of_member | Leave_of_non_member | Already_down | Already_up

let empty_shape = { members = Pairs.empty; down = Pairs.empty }

let link u v = (min u v, max u v)

let step s action =
  (* Set membership ends as [add] says; it was already so is the misstep. *)
  let flip set key ~add bad =
    let was = Pairs.mem key set in
    ( (if add then Pairs.add key set else Pairs.remove key set),
      if Bool.equal was add then Some bad else None )
  in
  match action with
  | Join { switch; mc; _ } ->
    let members, m = flip s.members (mc.id, switch) ~add:true Join_of_member in
    ({ s with members }, m)
  | Leave { switch; mc } ->
    let members, m =
      flip s.members (mc.id, switch) ~add:false Leave_of_non_member
    in
    ({ s with members }, m)
  | Link_down (u, v) ->
    let down, m = flip s.down (link u v) ~add:true Already_down in
    ({ s with down }, m)
  | Link_up (u, v) ->
    let down, m = flip s.down (link u v) ~add:false Already_up in
    ({ s with down }, m)

let members s (mc : Dgmc.Mc_id.t) =
  Pairs.fold
    (fun (m, switch) acc -> if m = mc.id then switch :: acc else acc)
    s.members []
  |> List.rev

let is_down s u v = Pairs.mem (link u v) s.down

let down_count s = Pairs.cardinal s.down

let well_formed list =
  let rec go s = function
    | [] -> Pairs.is_empty s.down
    | e :: rest -> (
      match step s e.action with
      | _, Some (Join_of_member | Leave_of_non_member) -> false
      | s, (None | Some (Already_down | Already_up)) -> go s rest)
  in
  go empty_shape list
