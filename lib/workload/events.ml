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
