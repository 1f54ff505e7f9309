(* Scoped per-phase wall/allocation attribution.  [enter]/[leave] bracket
   a named phase; nested phases accumulate into their parent's child
   totals so snapshots can report self time (= total - children).  The
   disabled singleton makes both calls a single branch with zero
   allocation, so instrumented kernels (Dijkstra, MST, Steiner, flooding
   dispatch, resync) cost nothing in ordinary runs. *)

type cell = {
  mutable c_calls : int;
  mutable c_wall : float;
  mutable c_minor : float;  (* minor words allocated, inclusive *)
  mutable c_child_wall : float;
  mutable c_child_minor : float;
}

type frame = {
  f_name : string;
  f_t0 : float;
  f_m0 : float;
  mutable f_child_wall : float;
  mutable f_child_minor : float;
}

type t = {
  on : bool;
  cells : (string, cell) Hashtbl.t;
  mutable stack : frame list;
  mutable unbalanced : int;
}

let disabled =
  { on = false; cells = Hashtbl.create 1; stack = []; unbalanced = 0 }

let create () =
  { on = true; cells = Hashtbl.create 16; stack = []; unbalanced = 0 }

let cell_of t name =
  match Hashtbl.find_opt t.cells name with
  | Some c -> c
  | None ->
    let c =
      {
        c_calls = 0;
        c_wall = 0.0;
        c_minor = 0.0;
        c_child_wall = 0.0;
        c_child_minor = 0.0;
      }
    in
    Hashtbl.replace t.cells name c;
    c

let enter t name =
  if t.on then begin
    (* dgmc-analyze: allow nondet-source — wall-clock phase attribution;
       never feeds simulation state *)
    let f_t0 = Unix.gettimeofday () in
    let f_m0 = Gc.minor_words () in
    t.stack <-
      { f_name = name; f_t0; f_m0; f_child_wall = 0.0; f_child_minor = 0.0 }
      :: t.stack
  end

let leave t =
  if t.on then begin
    match t.stack with
    | [] -> t.unbalanced <- t.unbalanced + 1
    | f :: rest ->
      t.stack <- rest;
      (* dgmc-analyze: allow nondet-source — wall-clock phase attribution *)
      let wall = Unix.gettimeofday () -. f.f_t0 in
      let minor = Gc.minor_words () -. f.f_m0 in
      let c = cell_of t f.f_name in
      c.c_calls <- c.c_calls + 1;
      c.c_wall <- c.c_wall +. wall;
      c.c_minor <- c.c_minor +. minor;
      c.c_child_wall <- c.c_child_wall +. f.f_child_wall;
      c.c_child_minor <- c.c_child_minor +. f.f_child_minor;
      (match rest with
      | parent :: _ ->
        parent.f_child_wall <- parent.f_child_wall +. wall;
        parent.f_child_minor <- parent.f_child_minor +. minor
      | [] -> ())
  end

let unbalanced_leaves t = t.unbalanced

(* ------------------------------------------------------------------ *)
(* Ambient probe: kernels deep in the call graph (Dijkstra, Steiner, …)
   have no [t] parameter to thread; they read the domain-local ambient
   probe instead, which defaults to [disabled]. *)

let ambient_key = Domain.DLS.new_key (fun () -> ref disabled)

let ambient () = !(Domain.DLS.get ambient_key)

let set_ambient t = Domain.DLS.get ambient_key := t

let with_ambient t f =
  let r = Domain.DLS.get ambient_key in
  let saved = !r in
  r := t;
  Fun.protect ~finally:(fun () -> r := saved) f

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type row = {
  r_name : string;
  r_calls : int;
  r_wall_s : float;
  r_self_wall_s : float;
  r_minor_words : float;
  r_self_minor_words : float;
}

let snapshot t =
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) t.cells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, c) ->
         {
           r_name = name;
           r_calls = c.c_calls;
           r_wall_s = c.c_wall;
           r_self_wall_s = Float.max 0.0 (c.c_wall -. c.c_child_wall);
           r_minor_words = c.c_minor;
           r_self_minor_words = Float.max 0.0 (c.c_minor -. c.c_child_minor);
         })
