type key = { name : string; switch : int option }

type t = { on : bool; cells : (key, counted) Hashtbl.t; owner : int }

(* A counter's value: the count of every handle listed under its key. *)
and counted = { mutable handles : counter list }

and counter = { mutable count : int; meter : meter }

(* Where a handle's bumps go besides its own count: nowhere for a handle
   of [disabled], else into its registry, which lists it on the first. *)
and meter =
  | Private
  | Metered of {
      home : t;
      name : string;
      switch : int option;
      mutable listed : bool;
    }

(* Never mutated: every recording call returns on [on = false] before it
   reaches the cell table or the owner check, so the one shared value is
   safe to record into from any domain. *)
let disabled = { on = false; cells = Hashtbl.create 1; owner = -1 }

let create () =
  { on = true; cells = Hashtbl.create 64; owner = (Domain.self () :> int) }

(* The cell table and the cells themselves are unsynchronised, so all
   mutation is pinned to the creating domain; recording from a worker
   domain is a bug (racy counts), not a best-effort degradation. *)
let check_owner t =
  let self = (Domain.self () :> int) in
  if not (Int.equal self t.owner) then
    invalid_arg
      (Printf.sprintf
         "Metrics.Registry: mutation from domain %d, but the registry is \
          owned by domain %d (collect on the owner domain instead)"
         self t.owner)

let counted_of t ?switch name =
  check_owner t;
  let key = { name; switch } in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
    let c = { handles = [] } in
    Hashtbl.replace t.cells key c;
    c

let counter t ?switch name =
  {
    count = 0;
    meter =
      (if t.on then Metered { home = t; name; switch; listed = false }
       else Private);
  }

let bump ?(by = 1) c =
  (match c.meter with
  | Private -> ()
  | Metered m when m.listed -> check_owner m.home
  | Metered m ->
    let cell = counted_of m.home ?switch:m.switch m.name in
    cell.handles <- c :: cell.handles;
    m.listed <- true);
  c.count <- c.count + by

let count c = c.count

let per_switch t n name = Array.init n (fun switch -> counter t ~switch name)

let sum = Array.fold_left (fun acc c -> acc + c.count) 0

let value c = List.fold_left (fun acc h -> acc + h.count) 0 c.handles

(* ------------------------------------------------------------------ *)
(* Snapshots: deterministic order regardless of insertion history *)

(* The unlabelled aggregate sorts before its per-switch cells. *)
let compare_key a b =
  match String.compare a.name b.name with
  | 0 -> Option.compare Int.compare a.switch b.switch
  | c -> c

let snapshot t =
  Hashtbl.fold (fun key c acc -> (key, value c) :: acc) t.cells []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)
