type t = int list

let rec edges = function
  | [] | [ _ ] -> []
  | u :: (v :: _ as rest) -> (u, v) :: edges rest

let cost g path =
  List.fold_left (fun acc (u, v) -> acc +. Graph.weight g u v) 0.0 (edges path)

let hops path = max 0 (List.length path - 1)
