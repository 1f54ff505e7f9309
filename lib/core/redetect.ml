(* A walk of its own rather than [List.exists], whose closure would be
   allocated on every install. *)
let rec crosses_dead_link self tree = function
  | [] -> false
  | (v, l) :: rest ->
    ((not (Net.Graph.is_up l)) && Mctree.Tree.mem_edge tree self v)
    || crosses_dead_link self tree rest

let dead_incident_link ~self image tree =
  crosses_dead_link self tree (Net.Graph.links image self)
