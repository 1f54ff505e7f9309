(* Property-based tests (qcheck): randomized scenarios checking the
   protocol's core guarantees and the tree algorithms' invariants. *)

(* ------------------------------------------------------------------ *)
(* Generators *)

(* A scenario: a seeded random graph, a timing regime, and a random
   mixed schedule of joins/leaves (+ optional non-partitioning link
   failures).  Shrinking is not very meaningful here, so scenarios are
   kept small instead. *)
type scenario = {
  seed : int;
  n : int;
  wan : bool;
  schedule : [ `Join of int | `Leave of int | `Link_down ] list;
      (** Switch indices are taken modulo [n]; [`Leave] of a non-member
          is reinterpreted as a join at injection time. *)
}

let pp_op = function
  | `Join x -> Printf.sprintf "join %d" x
  | `Leave x -> Printf.sprintf "leave %d" x
  | `Link_down -> "link-down"

let pp_scenario s =
  Printf.sprintf "{seed=%d; n=%d; wan=%b; [%s]}" s.seed s.n s.wan
    (String.concat "; " (List.map pp_op s.schedule))

let scenario_gen =
  QCheck2.Gen.(
    let op =
      frequency
        [
          (5, map (fun x -> `Join x) (int_range 0 100));
          (3, map (fun x -> `Leave x) (int_range 0 100));
          (1, return `Link_down);
        ]
    in
    map
      (fun (seed, n, wan, schedule) -> { seed; n; wan; schedule })
      (quad (int_range 1 10000) (int_range 5 25) bool
         (list_size (int_range 1 15) op)))

let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

(* Replay a scenario: events are injected in a burst (all within one
   round), running to quiescence only at the very end. *)
let run_scenario s =
  let graph = Experiments.Harness.graph_for ~seed:s.seed ~n:s.n in
  let config = if s.wan then Dgmc.Config.wan else Dgmc.Config.atm_lan in
  let net = Dgmc.Protocol.create ~graph ~config () in
  let round = Dgmc.Config.round_length config ~graph in
  let members = ref [] in
  let planned_down = ref [] in
  let rng = Sim.Rng.create (s.seed + 17) in
  List.iteri
    (fun i op ->
      let at = float_of_int i *. round /. 10.0 in
      let jitter = Sim.Rng.float rng (round /. 20.0) in
      let at = at +. jitter in
      match op with
      | `Join x ->
        let switch = x mod s.n in
        if not (List.mem switch !members) then begin
          members := switch :: !members;
          Dgmc.Protocol.schedule_join net ~at ~switch mc Dgmc.Member.Both
        end
      | `Leave x ->
        let switch = x mod s.n in
        if List.mem switch !members then begin
          members := List.filter (fun m -> m <> switch) !members;
          Dgmc.Protocol.schedule_leave net ~at ~switch mc
        end
        else begin
          members := switch :: !members;
          Dgmc.Protocol.schedule_join net ~at ~switch mc Dgmc.Member.Both
        end
      | `Link_down ->
        (* Only fail links whose loss — combined with the failures
           already planned — keeps the network connected, so that global
           agreement stays well-defined. *)
        let keeps_connected (e : Net.Graph.edge) =
          let g = Net.Graph.copy graph in
          List.iter (fun (u, v) -> Net.Graph.set_link g u v ~up:false) !planned_down;
          Net.Graph.set_link g e.u e.v ~up:false;
          Net.Bfs.is_connected g
        in
        let candidates =
          List.filter
            (fun (e : Net.Graph.edge) ->
              (not (List.mem (e.u, e.v) !planned_down)) && keeps_connected e)
            (Net.Graph.edges graph)
        in
        (match candidates with
        | [] -> ()
        | es ->
          let e = Sim.Rng.pick rng es in
          planned_down := (e.u, e.v) :: !planned_down;
          Dgmc.Protocol.schedule_link_down net ~at e.u e.v))
    s.schedule;
  Dgmc.Protocol.run net;
  net

(* ------------------------------------------------------------------ *)
(* Protocol properties *)

let prop_random_scenarios_converge =
  QCheck2.Test.make ~name:"random mixed schedules reach agreement" ~count:60
    ~print:pp_scenario scenario_gen (fun s ->
      let net = run_scenario s in
      match Dgmc.Protocol.divergence net mc with
      | [] -> true
      | reasons ->
        QCheck2.Test.fail_reportf "%s diverged: %s" (pp_scenario s)
          (String.concat "; " reasons))

let prop_agreed_topology_is_valid =
  QCheck2.Test.make ~name:"agreed topology is a valid embedded tree" ~count:40
    ~print:pp_scenario scenario_gen (fun s ->
      let net = run_scenario s in
      match Dgmc.Protocol.agreed_topology net mc with
      | None -> true (* all members left, or never joined *)
      | Some tree ->
        Mctree.Tree.is_valid_mc_topology (Dgmc.Protocol.graph net) tree)

(* Pinned regression: under QCHECK_SEED=961582112 the convergence
   property above used to shrink to this scenario — a non-partitioning
   link failure racing a burst of joins left one switch with a stale
   link-state image (its copy of the link event died at the failed link
   itself) and a tree the rest of the network had moved off.  Fixed by
   versioned LSDB entries with re-flooding on adoption; replayed here
   deterministically so the fix can never regress silently behind
   qcheck's random seed. *)
let scenario_961582112 =
  {
    seed = 827;
    n = 23;
    wan = true;
    schedule = [ `Join 98; `Join 0; `Join 0; `Link_down ];
  }

let test_pinned_stale_image_scenario () =
  let s = scenario_961582112 in
  match Dgmc.Protocol.divergence (run_scenario s) mc with
  | [] -> ()
  | reasons ->
    Alcotest.failf "%s diverged: %s" (pp_scenario s)
      (String.concat "; " reasons)

let prop_deterministic_replay =
  QCheck2.Test.make ~name:"same scenario, same outcome" ~count:20
    ~print:pp_scenario scenario_gen (fun s ->
      let t1 = Dgmc.Protocol.agreed_topology (run_scenario s) mc in
      let t2 = Dgmc.Protocol.agreed_topology (run_scenario s) mc in
      match (t1, t2) with
      | None, None -> true
      | Some a, Some b -> Mctree.Tree.equal a b
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Dense timestamp oracle

   The dense [int array] implementation [Dgmc.Timestamp] had before it
   stored only its nonzero components, kept as a reference: same
   interface, same error texts, the obvious O(n) algorithms.  The
   algebra laws below run against both, and the equivalence property
   drives both through the same random operations. *)

module type STAMP = sig
  type t

  val zero : int -> t
  val size : t -> int
  val get : t -> int -> int
  val bump : t -> int -> t
  val raise_to : t -> int -> int -> t
  val merge : t -> t -> t
  val geq : t -> t -> bool
  val gt : t -> t -> bool
  val equal : t -> t -> bool
  val sum : t -> int
  val iter_nonzero : (int -> int -> unit) -> t -> unit
  val of_array : int array -> t
  val to_array : t -> int array
  val pp : Format.formatter -> t -> unit
end

module Dense_stamp : STAMP = struct
  type t = int array

  let zero n =
    if n <= 0 then invalid_arg "Timestamp.zero: size must be positive";
    Array.make n 0

  let size = Array.length

  let get t x =
    if x < 0 || x >= Array.length t then
      invalid_arg "Timestamp.get: out of range";
    t.(x)

  let bump t x =
    if x < 0 || x >= Array.length t then
      invalid_arg "Timestamp.bump_owned: out of range";
    let copy = Array.copy t in
    copy.(x) <- copy.(x) + 1;
    copy

  let raise_to t x v =
    if x < 0 || x >= Array.length t then
      invalid_arg "Timestamp.raise_owned: out of range";
    if v <= t.(x) then t
    else begin
      let copy = Array.copy t in
      copy.(x) <- v;
      copy
    end

  let check_sizes a b =
    if Array.length a <> Array.length b then
      invalid_arg "Timestamp: size mismatch"

  let merge a b =
    check_sizes a b;
    Array.mapi (fun i ai -> max ai b.(i)) a

  let geq a b =
    check_sizes a b;
    Array.for_all2 (fun x y -> x >= y) a b

  let equal a b =
    check_sizes a b;
    Array.for_all2 Int.equal a b

  let gt a b = geq a b && not (equal a b)

  let sum t = Array.fold_left ( + ) 0 t

  let iter_nonzero f t = Array.iteri (fun x c -> if c > 0 then f x c) t

  let of_array a =
    Array.iter
      (fun x -> if x < 0 then invalid_arg "Timestamp.of_array: negative")
      a;
    if Array.length a = 0 then invalid_arg "Timestamp.of_array: empty";
    Array.copy a

  let to_array t = Array.copy t

  let pp ppf t =
    Format.fprintf ppf "(%a)"
      (Format.pp_print_seq
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      (Array.to_seq t)
end

(* ------------------------------------------------------------------ *)
(* Timestamp algebra properties

   The vector-timestamp laws the protocol's reconciliation — and the
   parallel runner's deterministic merge of per-cell results — lean on:
   [geq] is a partial order and [merge] a commutative, idempotent least
   upper bound.
   [label] prefixes every test name. *)

module Stamp_laws (T : STAMP) (L : sig
  val label : string
end) =
struct
  let name law = L.label ^ ": " ^ law

  let pp_stamps ts =
    String.concat " " (List.map (fun t -> Format.asprintf "%a" T.pp t) ts)

  (* [k] same-size random stamps, entries 0..4 (small enough that equal
     and comparable pairs actually occur). *)
  let stamps_gen k =
    QCheck2.Gen.(
      int_range 1 6 >>= fun size ->
      map
        (fun arrays -> List.map T.of_array arrays)
        (list_repeat k (array_size (return size) (int_range 0 4))))

  (* A pair (a, b) with b pointwise <= a, so the geq-related branches are
     exercised on every sample rather than by luck. *)
  let dominated_pair_gen =
    QCheck2.Gen.(
      int_range 1 6 >>= fun size ->
      map
        (fun (a, cuts) ->
          let b = Array.mapi (fun i x -> max 0 (x - cuts.(i))) a in
          (T.of_array a, T.of_array b))
        (pair
           (array_size (return size) (int_range 0 4))
           (array_size (return size) (int_range 0 4))))

  let geq_reflexive =
    QCheck2.Test.make ~name:(name "geq is reflexive") ~count:200
      ~print:(fun ts -> pp_stamps ts)
      (stamps_gen 1)
      (function [ a ] -> T.geq a a | _ -> false)

  let geq_antisymmetric =
    QCheck2.Test.make ~name:(name "geq both ways iff equal") ~count:400
      ~print:pp_stamps (stamps_gen 2)
      (function
        | [ a; b ] -> Bool.equal (T.geq a b && T.geq b a) (T.equal a b)
        | _ -> false)

  let geq_transitive =
    QCheck2.Test.make ~name:(name "geq is transitive") ~count:400
      ~print:(fun ((a, b), cuts) ->
        pp_stamps [ a; b ] ^ Printf.sprintf " cuts=%d" (Array.length cuts))
      QCheck2.Gen.(
        dominated_pair_gen >>= fun (a, b) ->
        map
          (fun cuts -> ((a, b), cuts))
          (array_size (return (T.size a)) (int_range 0 4)))
      (fun ((a, b), cuts) ->
        (* c pointwise <= b <= a: the chain must collapse. *)
        let c =
          T.of_array
            (Array.mapi (fun i x -> max 0 (x - cuts.(i))) (T.to_array b))
        in
        T.geq a b && T.geq b c && T.geq a c)

  let merge_idempotent_commutative_associative =
    QCheck2.Test.make ~name:(name "merge laws (idem, comm, assoc)") ~count:400
      ~print:pp_stamps (stamps_gen 3)
      (function
        | [ a; b; c ] ->
          T.equal (T.merge a a) a
          && T.equal (T.merge a b) (T.merge b a)
          && T.equal (T.merge (T.merge a b) c) (T.merge a (T.merge b c))
        | _ -> false)

  let merge_is_least_upper_bound =
    QCheck2.Test.make ~name:(name "merge is the least upper bound") ~count:400
      ~print:(fun (ts, _) -> pp_stamps ts)
      QCheck2.Gen.(
        stamps_gen 2 >>= fun ts ->
        map
          (fun lift -> (ts, lift))
          (array_size (return (T.size (List.hd ts))) (int_range 0 3)))
      (fun (ts, lift) ->
        match ts with
        | [ a; b ] ->
          let m = T.merge a b in
          (* Upper bound of both ... *)
          T.geq m a && T.geq m b
          (* ... below every independently constructed upper bound. *)
          &&
          let u =
            T.of_array
              (Array.init (T.size a) (fun i ->
                   max (T.get a i) (T.get b i) + lift.(i)))
          in
          T.geq u m
        | _ -> false)

  let merge_absorbs_dominated =
    QCheck2.Test.make ~name:(name "merge with a dominated stamp is identity")
      ~count:400
      ~print:(fun (a, b) -> pp_stamps [ a; b ])
      dominated_pair_gen
      (fun (a, b) -> T.equal (T.merge a b) a && T.equal (T.merge b a) a)

  let tests =
    List.map QCheck_alcotest.to_alcotest
      [
        geq_reflexive;
        geq_antisymmetric;
        geq_transitive;
        merge_idempotent_commutative_associative;
        merge_is_least_upper_bound;
        merge_absorbs_dominated;
      ]
end

module Sparse_laws =
  Stamp_laws
    (Oracle.Timestamp)
    (struct
      let label = "timestamp"
    end)

module Dense_laws =
  Stamp_laws
    (Dense_stamp)
    (struct
      let label = "dense oracle"
    end)

(* Sparse vs dense: three registers per implementation, driven by the
   same random operations.  Out-of-range switches, negative loads and
   size-mismatched merges are generated on purpose, so the error texts
   are compared too: an operation either succeeds in both (and both
   registers take the result) or raises the same [Invalid_argument] in
   both.  After every step every observable of every register and pair
   must agree.  The sparse stamps run twice: through the pure operations
   and through the in-place ones, where a register is the owner of its
   stamp, a merge into another register or a [Share] freezes the source
   first, and a register left holding a shared stamp must never see it
   change.  The observables include [geq], [gt], [equal] and the pure
   [merge] of every pair, so a total that an in-place writer left stale
   shows as a wrong comparison; [Shift] makes pairs whose totals tie but
   whose components differ, and [Share] pairs that are one stamp. *)
type stamp_op =
  | Bump of int * int  (** register, switch *)
  | Raise of int * int * int  (** register, switch, value *)
  | Merge of int * int * int  (** destination, left, right *)
  | Load of int * int array  (** [of_array] into a register *)
  | Mismatch of int  (** merge with a stamp one component larger *)
  | Share of int * int  (** destination takes the source's stamp *)
  | Merge_known of int * int * int
      (** [Merge] told whether the right stamp covers the left *)
  | Shift of int * int * int * int
      (** destination, source, from, to: the source with one count moved
          between two switches, so the total stays *)

let pp_stamp_op = function
  | Bump (r, x) -> Printf.sprintf "bump r%d %d" r x
  | Raise (r, x, v) -> Printf.sprintf "raise r%d %d %d" r x v
  | Merge (r, a, b) -> Printf.sprintf "r%d := merge r%d r%d" r a b
  | Load (r, a) ->
    Printf.sprintf "load r%d [%s]" r
      (String.concat ";" (Array.to_list (Array.map string_of_int a)))
  | Mismatch r -> Printf.sprintf "mismatch r%d" r
  | Share (r, a) -> Printf.sprintf "r%d := r%d" r a
  | Merge_known (r, a, b) -> Printf.sprintf "r%d := merge_known r%d r%d" r a b
  | Shift (r, a, x, y) -> Printf.sprintf "r%d := r%d with %d -> %d" r a x y

let stamp_ops_gen =
  QCheck2.Gen.(
    int_range 1 40 >>= fun n ->
    let reg = int_range 0 2 and switch = int_range (-1) n in
    let dense =
      array_size (return n) (frequency [ (8, return 0); (3, int_range 1 5) ])
    in
    let negative =
      map2
        (fun a i ->
          let a = Array.copy a in
          a.(i) <- -1;
          a)
        dense (int_range 0 (n - 1))
    in
    let op =
      frequency
        [
          (5, map2 (fun r x -> Bump (r, x)) reg switch);
          (3, map3 (fun r x v -> Raise (r, x, v)) reg switch (int_range (-2) 9));
          (4, map3 (fun r a b -> Merge (r, a, b)) reg reg reg);
          (2, map2 (fun r a -> Load (r, a)) reg dense);
          (1, map2 (fun r a -> Load (r, a)) reg negative);
          (1, map (fun r -> Mismatch r) reg);
          (1, map2 (fun r a -> Share (r, a)) reg reg);
          (3, map3 (fun r a b -> Merge_known (r, a, b)) reg reg reg);
          ( 2,
            map2
              (fun (r, a) (x, y) -> Shift (r, a, x, y))
              (pair reg reg)
              (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) );
        ]
    in
    map (fun ops -> (n, ops)) (list_size (int_range 1 40) op))

(* How a register takes an operation's result: [merge a b]'s result
   replaces [a]'s register, and [share] hands a stamp to a second
   register. *)
module type UPDATES = sig
  type t

  val bump : t -> int -> t
  val raise_to : t -> int -> int -> t
  val merge : t -> t -> t
  val merge_known : t -> t -> covered:bool -> t
  val share : t -> t
end

module Pure (T : STAMP) = struct
  include T

  let merge_known a b ~covered:_ = T.merge a b
  let share = Fun.id
end

module In_place = struct
  type t = Dgmc.Timestamp.t

  let bump = Dgmc.Timestamp.bump_owned
  let raise_to = Dgmc.Timestamp.raise_owned
  let merge = Dgmc.Timestamp.merge_owned
  let merge_known = Dgmc.Timestamp.merge_owned_known
  let share = Dgmc.Timestamp.freeze
end

module Observe (T : STAMP) (U : UPDATES with type t = T.t) = struct
  let outcome f =
    match f () with
    | v -> "ok " ^ v
    | exception Invalid_argument m -> "invalid " ^ m

  let step regs n = function
    | Bump (r, x) -> outcome (fun () -> regs.(r) <- U.bump regs.(r) x; "")
    | Raise (r, x, v) ->
      outcome (fun () -> regs.(r) <- U.raise_to regs.(r) x v; "")
    | Merge (r, a, b) ->
      let left = if r = a then regs.(a) else U.share regs.(a) in
      outcome (fun () -> regs.(r) <- U.merge left regs.(b); "")
    | Load (r, a) -> outcome (fun () -> regs.(r) <- T.of_array a; "")
    | Mismatch r ->
      outcome (fun () -> ignore (U.merge regs.(r) (T.zero (n + 1))); "")
    | Share (r, a) -> outcome (fun () -> regs.(r) <- U.share regs.(a); "")
    | Merge_known (r, a, b) ->
      let left = if r = a then regs.(a) else U.share regs.(a) in
      let covered = T.geq regs.(b) left in
      outcome (fun () -> regs.(r) <- U.merge_known left regs.(b) ~covered; "")
    | Shift (r, a, x, y) ->
      let dense = T.to_array regs.(a) in
      if dense.(x) > 0 then begin
        dense.(x) <- dense.(x) - 1;
        dense.(y) <- dense.(y) + 1
      end;
      outcome (fun () -> regs.(r) <- T.of_array dense; "")

  (* Everything observable about the registers, as text. *)
  let view regs n =
    let per_reg =
      Array.to_list regs
      |> List.concat_map (fun t ->
             let gets =
               List.init (n + 2) (fun i ->
                   outcome (fun () -> string_of_int (T.get t (i - 1))))
             in
             let nonzero = Buffer.create 16 in
             T.iter_nonzero
               (fun x c -> Printf.bprintf nonzero "%d:%d " x c)
               t;
             let dense = Array.map string_of_int (T.to_array t) in
             [
               Format.asprintf "%a" T.pp t;
               String.concat "," (Array.to_list dense);
               string_of_int (T.sum t);
               string_of_int (T.size t);
               Buffer.contents nonzero;
             ]
             @ gets)
    in
    let per_pair =
      List.concat_map
        (fun a ->
          List.concat_map
            (fun b ->
              [
                string_of_bool (T.geq a b);
                string_of_bool (T.gt a b);
                string_of_bool (T.equal a b);
                Format.asprintf "%a" T.pp (T.merge a b);
              ])
            (Array.to_list regs))
        (Array.to_list regs)
    in
    per_reg @ per_pair

  let run (n, ops) =
    let regs = Array.make 3 (T.zero n) in
    regs.(1) <- T.bump (T.bump regs.(1) (n - 1)) 0;
    List.concat_map (fun op -> step regs n op :: view regs n) ops
end

module Sparse_observe = Observe (Oracle.Timestamp) (Pure (Oracle.Timestamp))
module In_place_observe = Observe (Oracle.Timestamp) (In_place)
module Dense_observe = Observe (Dense_stamp) (Pure (Dense_stamp))

let prop_sparse_matches_dense_oracle =
  QCheck2.Test.make ~name:"timestamp: sparse agrees with the dense oracle"
    ~count:300
    ~print:(fun (n, ops) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; " (List.map pp_stamp_op ops)))
    stamp_ops_gen
    (fun case ->
      let dense = Dense_observe.run case in
      List.equal String.equal (Sparse_observe.run case) dense
      && List.equal String.equal (In_place_observe.run case) dense)

(* Totals that tie do not make stamps equal: (2,0) and (1,1), each
   built in place, are concurrent, and every comparison must walk past
   the totals to say so. *)
let test_equal_totals_differ () =
  let module T = Oracle.Timestamp in
  let check_stamp = Alcotest.(check (array int)) in
  let two_zero () = T.raise_owned (T.zero 2) 0 2 in
  let a = two_zero () in
  let b = T.bump_owned (T.bump_owned (T.zero 2) 0) 1 in
  Alcotest.(check (list bool))
    "geq, geq, gt, gt, equal" [ false; false; false; false; false ]
    [ T.geq a b; T.geq b a; T.gt a b; T.gt b a; T.equal a b ];
  check_stamp "merge" [| 2; 1 |] (T.to_array (T.merge a b));
  check_stamp "merge_owned_known" [| 2; 1 |]
    (T.to_array (T.merge_owned_known (two_zero ()) b ~covered:false));
  let m = T.merge_owned a b in
  Alcotest.(check bool) "merge_owned writes in place" true (m == a);
  check_stamp "merge_owned" [| 2; 1 |] (T.to_array m);
  Alcotest.(check bool) "the merge now covers b" true (T.gt m b);
  check_stamp "b is untouched" [| 1; 1 |] (T.to_array b)

(* ------------------------------------------------------------------ *)
(* Stamp ownership at the switch

   A switch updates its own R, E and membership_seen in place, so every
   stamp it hands out must be frozen first.  Random inputs drive switch
   0 of a 5-switch line and the copies made of it ("rigs").  Every stamp
   handed out (an LSA's, a computation's [old_R] through a proposal or a
   snapshot, an export in a delta, tombstones included, and
   [Switch.stamps]) is recorded with its dense view, and after every
   later input each must still show that view.  At the end every rig
   must match a fresh switch replayed through the rig's own inputs, so
   neither side of a [Switch.copy] reaches the other. *)

type owner_input =
  | Host_join of int  (** MC index *)
  | Host_leave of int
  | Remote of { mc : int; src : int; kind : int; lag : int; ahead : int }
      (** An LSA from [src]: kind 0 join, 1 leave, 2 link event, 3 a
          proposal carrying a member snapshot.  [lag] hides that many of
          switch 0's own events from its stamp, and [ahead] claims that
          many events of the next source the rig has not been sent yet,
          so the rig expects more than it has received. *)
  | Fire  (** The oldest timer the rig started. *)
  | Read_stamps of int
  | Read_snapshots
  | Ask_delta  (** An empty summary from switch 1: the delta exports all. *)

type owner_op = Input of int * owner_input | Copy of int  (** rig index *)

let pp_owner_input = function
  | Host_join m -> Printf.sprintf "join mc%d" m
  | Host_leave m -> Printf.sprintf "leave mc%d" m
  | Remote { mc; src; kind; lag; ahead } ->
    Printf.sprintf "remote mc%d src%d kind%d lag%d ahead%d" mc src kind lag
      ahead
  | Fire -> "fire"
  | Read_stamps m -> Printf.sprintf "stamps mc%d" m
  | Read_snapshots -> "snapshots"
  | Ask_delta -> "ask-delta"

let pp_owner_op = function
  | Input (r, i) -> Printf.sprintf "rig%d %s" r (pp_owner_input i)
  | Copy r -> Printf.sprintf "copy rig%d" r

let owner_ops_gen =
  QCheck2.Gen.(
    let mc = int_range 0 1 in
    let input =
      frequency
        [
          (3, map (fun m -> Host_join m) mc);
          (2, map (fun m -> Host_leave m) mc);
          ( 8,
            map
              (fun ((mc, src), (kind, lag, ahead)) ->
                Remote { mc; src; kind; lag; ahead })
              (pair
                 (pair mc (int_range 1 4))
                 (triple (int_range 0 3) (int_range 0 1) (int_range 0 1))) );
          (5, return Fire);
          (1, map (fun m -> Read_stamps m) mc);
          (1, return Read_snapshots);
          (1, return Ask_delta);
        ]
    in
    let rig = int_range 0 2 in
    list_size (int_range 1 60)
      (frequency
         [ (12, map2 (fun r i -> Input (r, i)) rig input); (1, map (fun r -> Copy r) rig) ]))

let owner_n = 5

let owner_mcs =
  [| Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1; Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 2 |]

type rig = {
  sw : Dgmc.Switch.t;
  timers : Dgmc.Switch.timer Queue.t;
  seen : int array array;
      (** Per MC, per source: events of that source this rig was sent,
          and (component 0) the rig's own events. *)
  mutable inputs : owner_input list;  (** Newest first. *)
}

(* Every stamp handed out, with its dense view at hand-out time. *)
let handed : (Dgmc.Timestamp.t * int array) list ref = ref []

let hand_out stamp = handed := (stamp, Dgmc.Timestamp.to_array stamp) :: !handed

let hand_out_export (x : Dgmc.Resync.mc_export) =
  List.iter hand_out [ x.exp_r; x.exp_e; x.exp_c; x.exp_membership_seen ]

let connect_rig rig =
  Dgmc.Switch.connect rig.sw (function
    | Start { timer; _ } -> Queue.push timer rig.timers
    | Flood (Mc lsa) -> hand_out lsa.stamp
    | Send { msg = Delta { mcs; _ }; _ } -> List.iter hand_out_export mcs
    | Send { msg = Summary { mcs; _ }; _ } ->
      List.iter
        (fun (x : Dgmc.Resync.mc_summary) ->
          List.iter hand_out [ x.sum_r; x.sum_e; x.sum_c ])
        mcs
    | Flood (Link _ | Resync _) | Changed -> ())

let fresh_rig () =
  let engine = Sim.Engine.create () in
  let sw =
    Dgmc.Switch.create ~id:0 ~n:owner_n ~config:Dgmc.Config.atm_lan ~engine
      ~boot:(Lsr.Lsdb.boot (Net.Topo_gen.line owner_n))
      ()
  in
  let rig =
    {
      sw;
      timers = Queue.create ();
      seen = Array.init (Array.length owner_mcs) (fun _ -> Array.make owner_n 0);
      inputs = [];
    }
  in
  connect_rig rig;
  rig

let snapshot_stamps (s : Dgmc.Switch.mc_snapshot) =
  [ s.snap_r; s.snap_e; s.snap_c; s.snap_membership_seen ]
  @ s.snap_computations
  @ Option.to_list s.snap_triggered
  @ List.map (fun (lsa : Dgmc.Mc_lsa.t) -> lsa.stamp) s.snap_mailbox

let apply_owner_input rig input =
  rig.inputs <- input :: rig.inputs;
  match input with
  | Host_join m ->
    rig.seen.(m).(0) <- rig.seen.(m).(0) + 1;
    Dgmc.Switch.host_join rig.sw owner_mcs.(m) Dgmc.Member.Both
  | Host_leave m ->
    rig.seen.(m).(0) <- rig.seen.(m).(0) + 1;
    Dgmc.Switch.host_leave rig.sw owner_mcs.(m)
  | Remote { mc = m; src; kind; lag; ahead } ->
    let seen = rig.seen.(m) in
    if kind < 3 then seen.(src) <- seen.(src) + 1;
    let stamp = Array.copy seen and next = 1 + (src mod (owner_n - 1)) in
    stamp.(0) <- max 0 (stamp.(0) - lag);
    stamp.(next) <- stamp.(next) + ahead;
    let stamp = Oracle.Timestamp.of_array stamp and mc = owner_mcs.(m) in
    let lsa =
      match kind with
      | 0 ->
        Dgmc.Mc_lsa.make ~src ~event:(Join Dgmc.Member.Both) ~mc ~stamp ()
      | 1 -> Dgmc.Mc_lsa.make ~src ~event:Leave ~mc ~stamp ()
      | 2 -> Dgmc.Mc_lsa.make ~src ~event:Link ~mc ~stamp ()
      | _ ->
        Dgmc.Mc_lsa.make ~src ~event:No_event ~mc
          ~proposal:(Mctree.Tree.of_terminals [ src ])
          ~members:(Dgmc.Member.of_list [ (src, Dgmc.Member.Both) ])
          ~stamp ()
    in
    Dgmc.Switch.deliver rig.sw (Mc lsa)
  | Fire -> (
    match Queue.take_opt rig.timers with
    | Some timer -> Dgmc.Switch.fire rig.sw timer
    | None -> ())
  | Read_stamps m -> (
    match Dgmc.Switch.stamps rig.sw owner_mcs.(m) with
    | Some (r, e, c) -> List.iter hand_out [ r; e; c ]
    | None -> ())
  | Read_snapshots ->
    List.iter
      (fun s -> List.iter hand_out (snapshot_stamps s))
      (Dgmc.Switch.snapshots rig.sw)
  | Ask_delta ->
    Dgmc.Switch.deliver rig.sw
      (Resync (Summary { session = 1; origin = 1; links = []; mcs = [] }))

let copy_rig rig =
  let copy =
    {
      sw = Dgmc.Switch.copy rig.sw;
      timers = Queue.copy rig.timers;
      seen = Array.map Array.copy rig.seen;
      inputs = rig.inputs;
    }
  in
  connect_rig copy;
  copy

let same_ints a b =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* The rig's state as text: every snapshot, dense views throughout. *)
let render_rig rig =
  let dense t = Format.asprintf "%a" Dgmc.Timestamp.pp t in
  List.map
    (fun (s : Dgmc.Switch.mc_snapshot) ->
      String.concat " "
        (Format.asprintf "%a %b %a %a" Dgmc.Mc_id.pp s.snap_mc s.snap_flag
           Dgmc.Member.pp s.snap_members Mctree.Tree.pp s.snap_topology
        :: List.map dense (snapshot_stamps s)))
    (Dgmc.Switch.snapshots rig.sw)

let prop_handed_out_stamps_never_change =
  QCheck2.Test.make ~name:"timestamp: handed-out switch stamps never change"
    ~count:300
    ~print:(fun ops -> String.concat "; " (List.map pp_owner_op ops))
    owner_ops_gen
    (fun ops ->
      handed := [];
      let rigs = ref [| fresh_rig () |] in
      let pick r = !rigs.(r mod Array.length !rigs) in
      let intact () =
        List.for_all
          (fun (stamp, view) -> same_ints (Dgmc.Timestamp.to_array stamp) view)
          !handed
      in
      List.for_all
        (fun op ->
          (match op with
          | Input (r, input) -> apply_owner_input (pick r) input
          | Copy r ->
            if Array.length !rigs < 3 then
              rigs := Array.append !rigs [| copy_rig (pick r) |]);
          intact ())
        ops
      && Array.for_all
           (fun rig ->
             let replay = fresh_rig () in
             List.iter (apply_owner_input replay) (List.rev rig.inputs);
             List.equal String.equal (render_rig rig) (render_rig replay))
           !rigs)

(* ------------------------------------------------------------------ *)
(* Tree algorithm properties *)

type tree_case = { g_seed : int; g_n : int; picks : int list }

let pp_tree_case c =
  Printf.sprintf "{g_seed=%d; g_n=%d; %d terminals}" c.g_seed c.g_n
    (List.length (List.sort_uniq Int.compare c.picks))

let tree_case_gen =
  QCheck2.Gen.(
    map
      (fun (g_seed, g_n, picks) -> { g_seed; g_n; picks })
      (triple (int_range 1 10000) (int_range 4 30)
         (list_size (int_range 1 8) (int_range 0 100))))

let terminals_of c =
  List.sort_uniq Int.compare (List.map (fun x -> x mod c.g_n) c.picks)

let prop_steiner_heuristics_valid =
  QCheck2.Test.make ~name:"steiner heuristics produce valid topologies"
    ~count:100 ~print:pp_tree_case tree_case_gen (fun c ->
      let g = Experiments.Harness.graph_for ~seed:c.g_seed ~n:c.g_n in
      let terminals = terminals_of c in
      List.for_all
        (fun algo ->
          let t = algo g terminals in
          Mctree.Tree.is_valid_mc_topology g t
          && Mctree.Tree.terminals t = terminals)
        [ Mctree.Steiner.kmb; Mctree.Steiner.sph ])

let prop_steiner_within_approximation_bound =
  QCheck2.Test.make ~name:"steiner cost within 2x lower bound" ~count:100
    ~print:pp_tree_case tree_case_gen (fun c ->
      let g = Experiments.Harness.graph_for ~seed:c.g_seed ~n:c.g_n in
      let terminals = terminals_of c in
      let lb = Mctree.Steiner.lower_bound g terminals in
      List.for_all
        (fun algo ->
          Mctree.Tree.cost g (algo g terminals) <= (2.0 *. lb) +. 1e-6)
        [ Mctree.Steiner.kmb; Mctree.Steiner.sph ])

let prop_incremental_sequence_stays_valid =
  QCheck2.Test.make ~name:"incremental join/leave keeps a valid topology"
    ~count:100 ~print:pp_tree_case tree_case_gen (fun c ->
      let g = Experiments.Harness.graph_for ~seed:c.g_seed ~n:c.g_n in
      let rng = Sim.Rng.create c.g_seed in
      let tree = ref Mctree.Tree.empty in
      let members = ref [] in
      let ok = ref true in
      List.iter
        (fun x ->
          let switch = x mod c.g_n in
          if List.mem switch !members then begin
            members := List.filter (fun m -> m <> switch) !members;
            tree := Mctree.Incremental.leave g !tree switch
          end
          else begin
            members := switch :: !members;
            tree := Mctree.Incremental.join g !tree switch
          end;
          ignore rng;
          if !members <> [] then
            ok :=
              !ok
              && Mctree.Tree.is_valid_mc_topology g !tree
              && Mctree.Tree.terminals !tree
                 = List.sort Int.compare !members)
        (c.picks @ c.picks);
      !ok)

let prop_spt_matches_dijkstra =
  QCheck2.Test.make ~name:"spt delays equal shortest-path distances" ~count:100
    ~print:pp_tree_case tree_case_gen (fun c ->
      let g = Experiments.Harness.graph_for ~seed:c.g_seed ~n:c.g_n in
      match terminals_of c with
      | [] -> true
      | root :: receivers ->
        let t = Mctree.Spt.source_rooted g ~root ~receivers in
        List.for_all
          (fun (receiver, delay) ->
            Float.abs (delay -. Oracle.Dijkstra.distance g root receiver) < 1e-9)
          (Oracle.Delivery.delays g t ~root))

let prop_mst_spans_and_sized =
  QCheck2.Test.make ~name:"kruskal yields a spanning tree" ~count:100
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 2 40))
    (fun (seed, n) ->
      let g = Experiments.Harness.graph_for ~seed ~n in
      let mst = Net.Mst.kruskal g in
      List.length mst = n - 1 && Oracle.Mst.spans g mst)

(* ------------------------------------------------------------------ *)
(* Topology generators against their original loops *)

(* The generators as first written: three distance passes over boxed
   points, and a joining step that rescans every cross-component pair
   once per added edge.  Every committed figure's graphs come from this
   code, so the fast generators must reproduce it edge for edge. *)
module Topo_oracle = struct
  let components g =
    let n = Net.Graph.n_nodes g in
    let seen = Array.make n false in
    let comps = ref [] in
    for src = 0 to n - 1 do
      if not seen.(src) then begin
        let members = ref [] in
        let r = Net.Bfs.reachable g src in
        for v = 0 to n - 1 do
          if r.(v) then begin
            seen.(v) <- true;
            members := v :: !members
          end
        done;
        comps := List.rev !members :: !comps
      end
    done;
    List.rev !comps

  let connect_components g weight_of =
    let rec join () =
      match components g with
      | [] | [ _ ] -> ()
      | comps ->
        let best = ref None in
        let consider u v =
          let w = weight_of u v in
          match !best with
          | Some (_, _, w') when w' <= w -> ()
          | _ -> best := Some (u, v, w)
        in
        let rec pairs = function
          | [] -> ()
          | comp :: rest ->
            List.iter
              (fun u ->
                List.iter (fun comp' -> List.iter (fun v -> consider u v) comp') rest)
              comp;
            pairs rest
        in
        pairs comps;
        (match !best with
        | Some (u, v, w) -> Net.Graph.add_edge g u v ~weight:w
        | None -> assert false);
        join ()
    in
    join ()

  let waxman rng ~n =
    let degree = 3.5 and beta = 0.2 and scale = 10.0 in
    let pos = Array.init n (fun _ ->
        let x = Sim.Rng.float rng 1.0 in
        let y = Sim.Rng.float rng 1.0 in
        (x, y))
    in
    let dist u v =
      let xu, yu = pos.(u) and xv, yv = pos.(v) in
      sqrt (((xu -. xv) ** 2.0) +. ((yu -. yv) ** 2.0))
    in
    let l = ref 0.0 in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if dist u v > !l then l := dist u v
      done
    done;
    let l = if !l = 0.0 then 1.0 else !l in
    let sum = ref 0.0 in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        sum := !sum +. exp (-.dist u v /. (beta *. l))
      done
    done;
    let alpha = Float.min 1.0 (float_of_int n *. degree /. (2.0 *. !sum)) in
    let g = Net.Graph.create n in
    let weight_of u v = Float.max 1e-6 (scale *. dist u v) in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let p = alpha *. exp (-.dist u v /. (beta *. l)) in
        if Sim.Rng.float rng 1.0 < p then Net.Graph.add_edge g u v ~weight:(weight_of u v)
      done
    done;
    connect_components g weight_of;
    g

  (* Unit weights only: then the original drew no weight at all, and its
     graphs are the ones the fast generator must keep. *)
  let erdos_renyi_unit rng ~n =
    let p = 3.0 /. float_of_int n in
    let g = Net.Graph.create n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Sim.Rng.float rng 1.0 < p then Net.Graph.add_edge g u v ~weight:1.0
      done
    done;
    connect_components g (fun _ _ -> 1.0);
    g
end

let same_graph a b =
  Oracle.Graph.equal a b
  && String.equal (Format.asprintf "%a" Net.Graph.pp a) (Format.asprintf "%a" Net.Graph.pp b)

let oracle_sizes = [ 2; 3; 5; 10; 20; 37; 50; 100; 200; 400 ]

let test_generators_match_oracle () =
  for seed = 1 to 60 do
    List.iter
      (fun n ->
        let fast = Net.Topo_gen.waxman (Sim.Rng.create seed) ~n in
        let slow = Topo_oracle.waxman (Sim.Rng.create seed) ~n in
        if not (same_graph fast slow) then
          Alcotest.failf "waxman differs at seed=%d n=%d" seed n;
        let fast =
          Oracle.Topo_gen.erdos_renyi (Sim.Rng.create seed) ~n ~min_weight:1.0
            ~max_weight:1.0 ()
        in
        let slow = Topo_oracle.erdos_renyi_unit (Sim.Rng.create seed) ~n in
        if not (same_graph fast slow) then
          Alcotest.failf "unit erdos-renyi differs at seed=%d n=%d" seed n)
      oracle_sizes
  done

(* Waxman's squares skip [pow] where [x *. x] must be its result; the
   graphs stay bit-identical only while every square equals
   [Float.pow x 2.0].  Checked on the coordinate differences Waxman
   draws, on the guard's edge cases, and on inputs searched for whose
   exact square lies 0.40-0.50 ulp from [x *. x], either side of the
   0.45 ulp cut. *)
let test_square_is_pow () =
  let check x =
    let fast = Net.Topo_gen.square x and slow = Float.pow x 2.0 in
    if not (Int64.equal (Int64.bits_of_float fast) (Int64.bits_of_float slow)) then
      Alcotest.failf "square %h = %h, pow = %h" x fast slow
  in
  let rng = Sim.Rng.create 1 in
  for _ = 1 to 1_000_000 do
    let a = Sim.Rng.float rng 1.0 in
    check (a -. Sim.Rng.float rng 1.0)
  done;
  List.iter check
    [ 0.0; -0.0; Float.min_float; 4e-324; 1e-160; 1e-300; 1e155; 1e200;
      Float.max_float; Float.infinity; Float.neg_infinity; Float.nan;
      Float.succ 1.0; Float.pred 1.0 ];
  for k = -1074 to 1023 do
    check (Float.ldexp 1.0 k);
    check (-.Float.ldexp 1.0 k)
  done;
  let below = ref 0 and above = ref 0 in
  while !below + !above < 20_000 do
    let x =
      Float.ldexp (1.0 +. Sim.Rng.float rng 1.0) (Sim.Rng.int rng 960 - 480)
    in
    let hi = x *. x in
    let r = Float.abs (Float.fma x x (-.hi)) /. (Float.succ hi -. hi) in
    if r >= 0.40 && r <= 0.50 then begin
      check x;
      if r < 0.45 then incr below else incr above
    end
  done;
  if !below < 5_000 || !above < 5_000 then
    Alcotest.failf "band search: %d below 0.45 ulp, %d above" !below !above

(* Small integer costs make ties the rule, so the joining order rests on
   the scan-order tie-break, including pairs whose earlier component
   changes as components merge. *)
let prop_connect_ties_match_oracle =
  QCheck2.Test.make ~name:"joining step matches the rescan loop under ties"
    ~count:300
    ~print:(fun (seed, n, levels) ->
      Printf.sprintf "seed=%d n=%d levels=%d" seed n levels)
    QCheck2.Gen.(triple (int_range 1 10000) (int_range 2 40) (int_range 1 4))
    (fun (seed, n, levels) ->
      let rng = Sim.Rng.create seed in
      let draw () =
        let g = Net.Graph.create n in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if Sim.Rng.float rng 1.0 < 1.2 /. float_of_int n then
              Net.Graph.add_edge g u v ~weight:1.0
          done
        done;
        g
      in
      let fast = draw () in
      let slow = Net.Graph.copy fast in
      let cost u v =
        let a = Int.min u v and b = Int.max u v in
        float_of_int (1 + (((a * 31) + (b * 17) + seed) mod levels))
      in
      Net.Topo_gen.connect_components fast ~cost ~weight:cost;
      Topo_oracle.connect_components slow cost;
      Net.Bfs.is_connected fast && same_graph fast slow)

(* The cached flat-array sweep against the plain definition: the largest
   finite hop count over every source's search. *)
let prop_hop_diameter_matches_searches =
  QCheck2.Test.make ~name:"hop diameter is the largest finite hop count"
    ~count:100
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 2 60))
    (fun (seed, n) ->
      let g = Experiments.Harness.graph_for ~seed ~n in
      let rng = Sim.Rng.create seed in
      List.iter
        (fun (e : Net.Graph.edge) ->
          if Sim.Rng.int rng 5 = 0 then Net.Graph.set_link g e.u e.v ~up:false)
        (Net.Graph.edges g);
      let expected =
        List.fold_left
          (fun acc src ->
            Array.fold_left
              (fun acc d -> if d <> max_int && d > acc then d else acc)
              acc (Oracle.Bfs.hops g src))
          0 (List.init n Fun.id)
      in
      Net.Bfs.hop_diameter g = expected)

(* The search memo against fresh searches: after every mutation, each
   source's memoised result equals a search over a copy, whose memo
   starts empty.  Steps flip a link, flip one and restore it (the same
   topology at a new version), set a link to its current state (no new
   version), or add an edge. *)
let same_search (a : Net.Dijkstra.result) (b : Net.Dijkstra.result) =
  Array.for_all2 Float.equal a.dist b.dist
  && Array.for_all2 Int.equal a.pred b.pred

let memo_matches_fresh g =
  List.for_all
    (fun src ->
      same_search (Net.Dijkstra.run g src)
        (Net.Dijkstra.run (Net.Graph.copy g) src))
    (List.init (Net.Graph.n_nodes g) Fun.id)

let prop_search_memo_matches_fresh =
  QCheck2.Test.make ~name:"memoised searches equal fresh searches" ~count:60
    ~print:(fun (seed, n, steps) ->
      Printf.sprintf "seed=%d n=%d steps=[%s]" seed n
        (String.concat "; " (List.map string_of_int steps)))
    QCheck2.Gen.(
      triple (int_range 1 10000) (int_range 2 30)
        (list_size (int_range 1 12) (int_range 0 9999)))
    (fun (seed, n, steps) ->
      let g = Net.Topo_gen.waxman (Sim.Rng.create seed) ~n in
      memo_matches_fresh g
      && List.for_all
           (fun k ->
             let all = Array.of_list (Net.Graph.all_edges g) in
             let e, up = all.(k / 4 mod Array.length all) in
             let mid_ok =
               match k mod 4 with
               | 0 ->
                 Net.Graph.set_link g e.u e.v ~up:(not up);
                 true
               | 1 ->
                 Net.Graph.set_link g e.u e.v ~up:(not up);
                 let ok = memo_matches_fresh g in
                 Net.Graph.set_link g e.u e.v ~up;
                 ok
               | 2 ->
                 Net.Graph.set_link g e.u e.v ~up;
                 true
               | _ ->
                 let u = k / 4 mod n and v = k / 7 mod n in
                 if u <> v && not (Net.Graph.has_edge g u v) then
                   Net.Graph.add_edge g u v
                     ~weight:(float_of_int (1 + (k mod 13)));
                 true
             in
             mid_ok && memo_matches_fresh g)
           steps)

(* Copy-on-write images: a database that flips a link answers for its
   own topology, while one still on the boot image keeps the boot
   image's results. *)
let prop_search_memo_follows_lsdb_images =
  QCheck2.Test.make ~name:"memoised searches follow Lsdb images" ~count:60
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 3 30))
    (fun (seed, n) ->
      let boot =
        Lsr.Lsdb.boot (Net.Topo_gen.waxman (Sim.Rng.create seed) ~n)
      in
      let flipper = Lsr.Lsdb.create boot and reader = Lsr.Lsdb.create boot in
      let sources = List.init n Fun.id in
      let before =
        List.map (Net.Dijkstra.run (Lsr.Lsdb.graph reader)) sources
      in
      (* A tree link of source 0's search: taking it down must change
         that search's predecessor at its far end. *)
      let r0 = List.hd before in
      match List.find_opt (fun v -> r0.pred.(v) >= 0) sources with
      | None -> true
      | Some v ->
        let u = r0.pred.(v) in
        Lsr.Lsdb.apply flipper { Lsr.Lsdb.u; v; up = false; version = 1 };
        let own = Lsr.Lsdb.graph flipper in
        (Net.Dijkstra.run own 0).pred.(v) <> u
        && memo_matches_fresh own
        && List.for_all2
             (fun src r ->
               same_search r (Net.Dijkstra.run (Lsr.Lsdb.graph reader) src))
             sources before)

let prop_flooding_covers_connected_graph =
  QCheck2.Test.make ~name:"flooding reaches every switch exactly once"
    ~count:60
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 2 30))
    (fun (seed, n) ->
      let g = Experiments.Harness.graph_for ~seed ~n in
      let engine = Sim.Engine.create () in
      let hits = Array.make n 0 in
      let deliver ~switch _ = hits.(switch) <- hits.(switch) + 1 in
      let f = Lsr.Flooding.create ~engine ~graph:g ~t_hop:1.0 ~deliver () in
      Lsr.Flooding.flood f (Lsr.Lsa.make ~origin:0 ~seq:0 ());
      Sim.Engine.run engine;
      hits.(0) = 0
      && Array.for_all (fun h -> h = 1) (Array.sub hits 1 (n - 1)))

(* ------------------------------------------------------------------ *)
(* Member lists *)

module Int_map = Map.Make (Int)

let role_gen =
  QCheck2.Gen.oneofl Dgmc.Member.[ Sender; Receiver; Both ]

let role_equal a b =
  String.equal (Dgmc.Member.role_to_string a) (Dgmc.Member.role_to_string b)

let pp_bindings l =
  String.concat ";"
    (List.map
       (fun (x, r) -> Printf.sprintf "%d:%s" x (Dgmc.Member.role_to_string r))
       l)

(* Two member lists from binding lists: the second is independent
   (mostly another cardinality), the first itself (physically equal),
   the first rebuilt in reverse insertion order, or the first with one
   member's role changed (same keys, other roles). *)
let member_pair_gen =
  QCheck2.Gen.(
    let bindings = list_size (int_range 0 8) (pair (int_range 0 9) role_gen) in
    triple bindings bindings (int_range 0 3) >>= fun (a, b, shape) ->
    let b =
      match shape with
      | 0 -> b
      | 1 -> a
      | 2 -> List.rev a
      | _ -> (
        match a with
        | [] -> b
        | (x, r) :: _ ->
          let r' =
            match r with
            | Dgmc.Member.Sender -> Dgmc.Member.Receiver
            | Receiver -> Both
            | Both -> Sender
          in
          a @ [ (x, r') ])
    in
    return (a, b, shape))

type member_op = Join_m of int * Dgmc.Member.role | Leave_m of int

let pp_member_op = function
  | Join_m (x, r) -> Printf.sprintf "join %d:%s" x (Dgmc.Member.role_to_string r)
  | Leave_m x -> Printf.sprintf "leave %d" x

let reference_of_bindings l =
  List.fold_left (fun m (x, r) -> Int_map.add x r m) Int_map.empty l

(* Everything observable about a member list, read from the packed
   list itself and, the same way, from its [Int_map] model. *)
let member_view m =
  let module M = Dgmc.Member in
  let probe = List.init 12 (fun i -> i - 1) in
  [
    string_of_int (M.cardinal m);
    string_of_bool (M.is_empty m);
    String.concat "," (List.map string_of_int (M.ids m));
    String.concat "," (List.map string_of_int (M.senders m));
    String.concat "," (List.map string_of_int (M.receivers m));
    Format.asprintf "%a" M.pp m;
  ]
  @ List.map
      (fun x ->
        Printf.sprintf "%b %s" (M.mem m x)
          (match M.role m x with
          | Some r -> M.role_to_string r
          | None -> "-"))
      probe

let model_view model =
  let bindings = Int_map.bindings model in
  let ids_with keep =
    List.filter_map (fun (x, r) -> if keep r then Some x else None) bindings
  in
  let ints l = String.concat "," (List.map string_of_int l) in
  let probe = List.init 12 (fun i -> i - 1) in
  [
    string_of_int (Int_map.cardinal model);
    string_of_bool (Int_map.is_empty model);
    ints (List.map fst bindings);
    ints (ids_with (function Dgmc.Member.Sender | Both -> true | Receiver -> false));
    ints (ids_with (function Dgmc.Member.Receiver | Both -> true | Sender -> false));
    "{"
    ^ String.concat ", "
        (List.map
           (fun (x, r) -> Printf.sprintf "%d:%s" x (Dgmc.Member.role_to_string r))
           bindings)
    ^ "}";
  ]
  @ List.map
      (fun x ->
        Printf.sprintf "%b %s" (Int_map.mem x model)
          (match Int_map.find_opt x model with
          | Some r -> Dgmc.Member.role_to_string r
          | None -> "-"))
      probe

(* The packed [Member] against an [Int_map] model.  A random join/leave
   sequence drives both, and after every step every observable agrees.
   Then [equal] must match the model's equality on the pair from
   [member_pair_gen], and [compare], over the pair and every list the
   sequence passed through, must be a total order whose zero is
   exactly [equal]: antisymmetric, and sorting by it leaves no pair out
   of order. *)
let prop_member_matches_map_model =
  QCheck2.Test.make ~name:"Member matches the Int_map model" ~count:500
    ~print:(fun ((a, b, shape), ops) ->
      Printf.sprintf "a=[%s] b=[%s] shape=%d ops=[%s]" (pp_bindings a)
        (pp_bindings b) shape
        (String.concat "; " (List.map pp_member_op ops)))
    QCheck2.Gen.(
      pair member_pair_gen
        (list_size (int_range 0 20)
           (frequency
              [
                (3, map2 (fun x r -> Join_m (x, r)) (int_range 0 9) role_gen);
                (2, map (fun x -> Leave_m x) (int_range 0 9));
              ])))
    (fun ((a, b, shape), ops) ->
      let module M = Dgmc.Member in
      let step (m, model) = function
        | Join_m (x, r) -> (M.join m x r, Int_map.add x r model)
        | Leave_m x -> (M.leave m x, Int_map.remove x model)
      in
      let states =
        List.rev
          (List.fold_left
             (fun acc op -> step (List.hd acc) op :: acc)
             [ (M.empty, Int_map.empty) ]
             ops)
      in
      let ma = M.of_list a in
      let mb = if shape = 1 then ma else M.of_list b in
      let expected =
        Int_map.equal role_equal (reference_of_bindings a) (reference_of_bindings b)
      in
      let all =
        (ma, reference_of_bindings a) :: (mb, reference_of_bindings b) :: states
      in
      let sign x = Int.compare x 0 in
      List.for_all
        (fun (m, model) ->
          List.equal String.equal (member_view m) (model_view model))
        all
      && Bool.equal (M.equal ma mb) expected
      && Bool.equal (M.equal mb ma) expected
      && List.for_all
           (fun (x, mx) ->
             List.for_all
               (fun (y, my) ->
                 let same = Int_map.equal role_equal mx my in
                 Bool.equal (M.equal x y) same
                 && Bool.equal (M.compare x y = 0) same
                 && sign (M.compare x y) = - sign (M.compare y x))
               all)
           all
      &&
      let rec ordered = function
        | x :: (_ :: _ as rest) ->
          List.for_all (fun y -> M.compare x y <= 0) rest && ordered rest
        | [ _ ] | [] -> true
      in
      ordered (List.sort M.compare (List.map fst all)))

(* ------------------------------------------------------------------ *)
(* Trace renderers *)

(* Each renderer that writes one [Bytes] of precomputed length equals
   the [Buffer] or [^] rendering it replaced ([Oracle]), on empty lists
   and trees, id 0, negative and extreme ids, and multi-digit ids and
   counts.  A wrong width shows as a short or overlong string, or as a
   stray byte where [Bytes.create] left garbage. *)
type rendered = {
  members : (int * Dgmc.Member.role) list;
  terminals : int list;
  edges : (int * int) list;
  mc : Dgmc.Mc_id.t;
  event : Dgmc.Mc_lsa.event;
  counts : int * int * int * int;  (* switch, src, seq, seen *)
}

let rendered_gen =
  QCheck2.Gen.(
    let count = oneof [ int_range 0 9; int_range 10 99_999; int_range 0 max_int ] in
    let node span = int_range 0 span in
    let graph =
      int_range 0 2 >>= fun scale ->
      let span = [| 0; 12; 100_000 |].(scale) in
      pair
        (list_size (int_range 0 6) (node span))
        (list_size (int_range 0 12) (pair (node span) (node span)))
    in
    let event =
      oneofl
        Dgmc.Mc_lsa.
          [ Join Sender; Join Receiver; Join Both; Leave; Link; No_event ]
    in
    let id =
      oneof
        [
          count;
          oneofl [ -1; -10; min_int; max_int ];
          int_range (-99_999) (-1);
        ]
    in
    let member =
      pair
        (oneof [ int_range 0 9; int_range 10 99_999; int_range 0 (max_int asr 2) ])
        role_gen
    in
    map
      (fun (members, (terminals, edges), (kind, mc_id), event, counts) ->
        {
          members;
          terminals;
          edges = List.filter (fun (u, v) -> u <> v) edges;
          mc = Dgmc.Mc_id.make kind mc_id;
          event;
          counts;
        })
      (tup5
         (list_size (int_range 0 8) member)
         graph
         (pair
            (oneofl Dgmc.Mc_id.[ Symmetric; Receiver_only; Asymmetric ])
            id)
         event
         (quad count count count id)))

let prop_renderers_match_oracles =
  QCheck2.Test.make ~name:"renderers equal the Buffer and ^ oracles" ~count:500
    ~print:(fun r ->
      let switch, src, seq, seen = r.counts in
      Printf.sprintf "members=[%s] terminals=[%s] edges=[%s] %s %s %d %d %d %d"
        (pp_bindings r.members)
        (String.concat ";" (List.map string_of_int r.terminals))
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) r.edges))
        (Oracle.Mc_id.to_string r.mc)
        (Dgmc.Mc_lsa.event_to_string r.event)
        switch src seq seen)
    rendered_gen
    (fun r ->
      let members = Dgmc.Member.of_list r.members
      and tree = Mctree.Tree.of_edges ~terminals:r.terminals r.edges
      and switch, src, seq, seen = r.counts in
      (* [put_int] between two marker bytes writes exactly
         [int_width n] bytes, those of [string_of_int n]. *)
      let int_renders n =
        let w = Sim.Render.int_width n in
        let b = Bytes.make (w + 2) '.' in
        Sim.Render.put_int b 1 n = w + 1
        && String.equal (Bytes.to_string b) ("." ^ string_of_int n ^ ".")
      in
      List.for_all int_renders [ switch; src; seq; seen; r.mc.id; min_int; 0 ]
      && String.equal (Oracle.Member.to_string members)
           (Dgmc.Member.to_string members)
      && String.equal (Oracle.Tree.to_string tree) (Mctree.Tree.to_string tree)
      && String.equal (Oracle.Tree.fingerprint tree)
           (Mctree.Tree.fingerprint tree)
      && String.equal (Oracle.Mc_id.to_string r.mc) (Dgmc.Mc_id.to_string r.mc)
      && String.equal
           (Oracle.Mc_lsa.applies_note ~switch ~src ~seq r.event)
           (Dgmc.Mc_lsa.applies_note ~switch ~src ~seq r.event)
      && String.equal
           (Oracle.Mc_lsa.skips_note ~switch ~src ~seq ~seen r.event)
           (Dgmc.Mc_lsa.skips_note ~switch ~src ~seq ~seen r.event))

(* ------------------------------------------------------------------ *)
(* Hierarchy properties *)

type hier_case = { h_seed : int; h_areas : int; h_ops : (bool * int) list }

let pp_hier c =
  Printf.sprintf "{h_seed=%d; areas=%d; %d ops}" c.h_seed c.h_areas
    (List.length c.h_ops)

let hier_gen =
  QCheck2.Gen.(
    map
      (fun (h_seed, h_areas, h_ops) -> { h_seed; h_areas; h_ops })
      (triple (int_range 1 5000) (int_range 2 5)
         (list_size (int_range 1 12) (pair bool (int_range 0 1000)))))

let prop_hierarchy_random_churn =
  QCheck2.Test.make ~name:"hierarchy: random churn reaches agreement" ~count:40
    ~print:pp_hier hier_gen (fun c ->
      let per_area = 6 in
      let rng = Sim.Rng.create c.h_seed in
      let graph, partition =
        Net.Topo_gen.clustered rng ~areas:c.h_areas ~per_area
      in
      let h =
        Hierarchy.Hmc.create ~graph ~partition ~config:Dgmc.Config.atm_lan ()
      in
      let n = c.h_areas * per_area in
      let members = ref [] in
      List.iter
        (fun (_, x) ->
          let s = x mod n in
          if List.mem s !members then begin
            members := List.filter (fun m -> m <> s) !members;
            Oracle.Hmc.leave h ~switch:s mc
          end
          else begin
            members := s :: !members;
            Oracle.Hmc.join h ~switch:s mc Dgmc.Member.Both
          end;
          (* Quiesce between ops: the hierarchy's gateway control loop is
             eventually consistent, not burst-safe (documented). *)
          Hierarchy.Hmc.run h)
        c.h_ops;
      Hierarchy.Hmc.converged h mc
      || QCheck2.Test.fail_reportf "%s diverged" (pp_hier c))

let prop_hierarchy_global_tree_valid =
  QCheck2.Test.make ~name:"hierarchy: stitched tree spans the members" ~count:40
    ~print:pp_hier hier_gen (fun c ->
      let per_area = 6 in
      let rng = Sim.Rng.create c.h_seed in
      let graph, partition =
        Net.Topo_gen.clustered rng ~areas:c.h_areas ~per_area
      in
      let h =
        Hierarchy.Hmc.create ~graph ~partition ~config:Dgmc.Config.atm_lan ()
      in
      let n = c.h_areas * per_area in
      let members =
        List.sort_uniq Int.compare (List.map (fun (_, x) -> x mod n) c.h_ops)
      in
      List.iter
        (fun s ->
          Oracle.Hmc.join h ~switch:s mc Dgmc.Member.Both;
          Hierarchy.Hmc.run h)
        members;
      match Hierarchy.Hmc.global_tree h mc with
      | None -> QCheck2.Test.fail_reportf "%s: no global tree" (pp_hier c)
      | Some tree ->
        Mctree.Tree.is_valid_mc_topology graph tree
        && Mctree.Tree.terminals tree = members)

(* ------------------------------------------------------------------ *)
(* Guided-search properties *)

(* Small two-join race scenarios over a handful of tiny topologies —
   small enough to enumerate the FULL post-race state graph and compare
   the guided search against ground truth. *)
let search_graphs =
  [|
    ("ring 3", fun () -> Net.Topo_gen.ring 3);
    ("ring 4", fun () -> Net.Topo_gen.ring 4);
    ("line 3", fun () -> Net.Topo_gen.line 3);
    ("line 4", fun () -> Net.Topo_gen.line 4);
  |]

let search_scenario_of ?(config = Dgmc.Config.atm_lan) (gi, a, b) =
  let name, make = search_graphs.(gi mod Array.length search_graphs) in
  let graph = make () in
  let n = Net.Graph.n_nodes graph in
  let a = a mod n in
  let b = if b mod n = a then (a + 1) mod n else b mod n in
  let join switch =
    Check.Harness.Action (Join { switch; mc; role = Dgmc.Member.Both })
  in
  ( Printf.sprintf "%s joins=%d,%d" name a b,
    { Check.Explore.graph; config; setup = []; race = [ join a; join b ] } )

let search_case_gen =
  QCheck2.Gen.(triple (int_range 0 3) (int_range 0 3) (int_range 0 3))

(* Enumerate the whole deduped state graph by replay: returns each
   distinct state's (digest, heuristic bound, successor digests,
   distance-to-nearest-terminal). *)
let enumerate_state_graph scenario =
  let seen = Hashtbl.create 64 in
  let states = ref [] in (* (digest, bound, succs) in discovery order *)
  let queue = Queue.create () in
  let h0 = Oracle.Explore.build scenario [] in
  Hashtbl.replace seen (Check.Harness.digest h0) ();
  Queue.add ([], Check.Harness.digest h0) queue;
  while not (Queue.is_empty queue) do
    let prefix, dg = Queue.pop queue in
    let h = Oracle.Explore.build scenario prefix in
    let bound = Check.Harness.pending_count h in
    let succs =
      List.map
        (fun a ->
          let h' = Oracle.Explore.build scenario (prefix @ [ a ]) in
          let d' = Check.Harness.digest h' in
          if not (Hashtbl.mem seen d') then begin
            Hashtbl.replace seen d' ();
            Queue.add (prefix @ [ a ], d') queue
          end;
          d')
        (Check.Harness.enabled h)
    in
    states := (dg, bound, succs) :: !states
  done;
  let states = List.rev !states in
  (* Exact distance to the nearest terminal: reverse BFS, iterated to a
     fixed point (the graph is tiny). *)
  let dist = Hashtbl.create 64 in
  List.iter
    (fun (dg, _, succs) -> if succs = [] then Hashtbl.replace dist dg 0)
    states;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (dg, _, succs) ->
        List.iter
          (fun s ->
            match Hashtbl.find_opt dist s with
            | None -> ()
            | Some ds ->
              let candidate = ds + 1 in
              let better =
                match Hashtbl.find_opt dist dg with
                | None -> true
                | Some cur -> candidate < cur
              in
              if better then begin
                Hashtbl.replace dist dg candidate;
                changed := true
              end)
          succs)
      states
  done;
  List.map
    (fun (dg, bound, succs) -> (dg, bound, succs, Hashtbl.find_opt dist dg))
    states

let prop_search_heuristic_admissible_consistent =
  QCheck2.Test.make
    ~name:"search: heuristic is admissible and consistent" ~count:6
    ~print:(fun c -> fst (search_scenario_of c))
    search_case_gen
    (fun c ->
      let _, scenario = search_scenario_of c in
      let states = enumerate_state_graph scenario in
      let bound_of =
        let tbl = Hashtbl.create 64 in
        List.iter (fun (dg, b, _, _) -> Hashtbl.replace tbl dg b) states;
        Hashtbl.find tbl
      in
      List.for_all
        (fun (_, bound, succs, dist) ->
          (* Admissible: never above the true distance to a terminal
             (every state of these fault-free scenarios reaches one). *)
          (match dist with Some d -> bound <= d | None -> false)
          (* Consistent: dropping by at most one per transition. *)
          && List.for_all (fun s -> bound <= 1 + bound_of s) succs)
        states)

let prop_search_finds_iff_explore_finds =
  (* Digest-dedup soundness: the guided search reports a violation
     exactly when the exhaustive checker does — deduplication never
     drops the (only) path into a reachable violating state — and when
     both cover the whole space they count the same states, transitions
     and terminals. *)
  QCheck2.Test.make
    ~name:"search: forward agrees with exhaustive exploration" ~count:6
    ~print:(fun (c, broken) ->
      Printf.sprintf "%s broken=%b" (fst (search_scenario_of c)) broken)
    QCheck2.Gen.(pair search_case_gen bool)
    (fun (c, broken) ->
      let config =
        if broken then
          {
            Dgmc.Config.atm_lan with
            Dgmc.Config.inject = Some Dgmc.Config.Skip_stale_sender_flag;
          }
        else Dgmc.Config.atm_lan
      in
      let _, scenario = search_scenario_of ~config c in
      let guided =
        Check.Search.forward ~target:Oracle.Search.any ~max_states:50_000
          ~domains:1 scenario
      in
      let exhaustive = Oracle.Explore.run scenario in
      let counts (o : Check.Explore.outcome) =
        (o.states, o.transitions, o.terminals)
      in
      (match guided.Check.Explore.found with
       | Some _ -> true
       | None -> false)
      = (match exhaustive.Check.Explore.found with
         | Some _ -> true
         | None -> false)
      && ((not (guided.complete && exhaustive.complete))
         || counts guided = counts exhaustive))

let prop_search_domains_identical =
  QCheck2.Test.make
    ~name:"search: forward at domains 1/2/4 is byte-identical" ~count:6
    ~print:(fun (c, broken) ->
      Printf.sprintf "%s broken=%b" (fst (search_scenario_of c)) broken)
    QCheck2.Gen.(pair search_case_gen bool)
    (fun (c, broken) ->
      let config =
        if broken then
          {
            Dgmc.Config.atm_lan with
            Dgmc.Config.inject = Some Dgmc.Config.Skip_stale_sender_flag;
          }
        else Dgmc.Config.atm_lan
      in
      let _, scenario = search_scenario_of ~config c in
      let render domains =
        Format.asprintf "%a" Check.Search.pp_forward
          (Check.Search.forward ~target:Oracle.Search.any ~max_states:50_000
             ~domains scenario)
      in
      let r1 = render 1 in
      String.equal r1 (render 2) && String.equal r1 (render 4))

(* ------------------------------------------------------------------ *)
(* Link health: detector and damping properties *)

let prop_k_missed_safe_under_k_minus_1_losses =
  (* Runs of at most k-1 consecutive missed hellos never fire a
     k-missed detector: at every arrival instant the verdict is still
     up. *)
  QCheck2.Test.make
    ~name:"health: k-missed never fires on <= k-1 consecutive losses"
    ~count:300
    ~print:(fun (k, runs, period, grace) ->
      (* dgmc-analyze: allow float-format — counterexample printer *)
      Printf.sprintf "k=%d runs=[%s] period=%g grace=%g" k
        (String.concat "; " (List.map string_of_int runs))
        period grace)
    QCheck2.Gen.(
      int_range 1 6 >>= fun k ->
      tup4 (return k)
        (list_size (int_range 1 20) (int_range 0 (k - 1)))
        (float_range 0.1 2.0) (float_range 0.01 1.0))
    (fun (k, runs, period, grace) ->
      let det =
        Health.Detector.create ~k ~period ~grace ~start:0.0
      in
      let now = ref 0.0 in
      List.for_all
        (fun losses ->
          (* [losses] hellos vanish, then one arrives on schedule. *)
          now := !now +. (float_of_int (losses + 1) *. period);
          let alive = not (Health.Detector.down det ~now:!now) in
          Health.Detector.note_arrival det ~now:!now;
          alive)
        runs)

let prop_damping_decays_to_reuse_in_bounded_time =
  (* However many flaps accumulated, suppression lifts exactly when the
     exponential decay reaches the reuse threshold — and that instant is
     the analytic half-life bound, so readmission is never unbounded. *)
  QCheck2.Test.make
    ~name:"health: damping decays to reuse within the half-life bound"
    ~count:300
    ~print:(fun (penalty, suppress_over, reuse, half_life, flaps) ->
      (* dgmc-analyze: allow float-format — counterexample printer *)
      Printf.sprintf
        "penalty=%g suppress=reuse+%g reuse=%g half-life=%g flaps=%d" penalty
        suppress_over reuse half_life flaps)
    QCheck2.Gen.(
      tup5 (float_range 0.1 4.0) (float_range 0.1 4.0) (float_range 0.05 2.0)
        (float_range 0.1 10.0) (int_range 1 30))
    (fun (penalty, suppress_over, reuse, half_life, flaps) ->
      let suppress = reuse +. suppress_over in
      let cfg = { Health.Damping.penalty; suppress; reuse; half_life } in
      (match Health.Damping.validate cfg with
      | Ok () -> ()
      | Error m -> failwith m);
      let d = Health.Damping.create cfg in
      (* Rapid-fire worst case: all flaps at t=0, no decay in between. *)
      for _ = 1 to flaps do
        Health.Damping.flap d ~now:0.0
      done;
      let total = float_of_int flaps *. penalty in
      if total < suppress then
        (* Never suppressed: nothing to readmit. *)
        Health.Damping.reuse_time d ~now:0.0 = None
      else
        match Health.Damping.reuse_time d ~now:0.0 with
        | None -> false
        | Some rt ->
          let bound =
            half_life *. (Float.log (total /. reuse) /. Float.log 2.0)
          in
          let eps = 1e-6 *. Float.max 1.0 rt in
          rt <= bound +. eps
          && Health.Damping.suppressed d ~now:(rt -. eps)
          && not (Health.Damping.suppressed d ~now:(rt +. eps)))

let () =
  Alcotest.run "properties"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_random_scenarios_converge;
          QCheck_alcotest.to_alcotest prop_agreed_topology_is_valid;
          QCheck_alcotest.to_alcotest prop_deterministic_replay;
          Alcotest.test_case "pinned stale-image scenario (seed 961582112)"
            `Quick test_pinned_stale_image_scenario;
        ] );
      ( "timestamps",
        Sparse_laws.tests
        @ [
            QCheck_alcotest.to_alcotest prop_sparse_matches_dense_oracle;
            Alcotest.test_case "timestamp: equal totals, different components"
              `Quick test_equal_totals_differ;
            QCheck_alcotest.to_alcotest prop_handed_out_stamps_never_change;
          ]
        @ Dense_laws.tests );
      ( "trees",
        [
          QCheck_alcotest.to_alcotest prop_steiner_heuristics_valid;
          QCheck_alcotest.to_alcotest prop_steiner_within_approximation_bound;
          QCheck_alcotest.to_alcotest prop_incremental_sequence_stays_valid;
          QCheck_alcotest.to_alcotest prop_spt_matches_dijkstra;
          QCheck_alcotest.to_alcotest prop_mst_spans_and_sized;
        ] );
      ( "topology",
        [
          Alcotest.test_case "generators match the original loops" `Quick
            test_generators_match_oracle;
          Alcotest.test_case "waxman's square is Float.pow x 2.0" `Quick
            test_square_is_pow;
          QCheck_alcotest.to_alcotest prop_connect_ties_match_oracle;
          QCheck_alcotest.to_alcotest prop_hop_diameter_matches_searches;
          QCheck_alcotest.to_alcotest prop_search_memo_matches_fresh;
          QCheck_alcotest.to_alcotest prop_search_memo_follows_lsdb_images;
        ] );
      ( "flooding",
        [ QCheck_alcotest.to_alcotest prop_flooding_covers_connected_graph ] );
      ( "members",
        [ QCheck_alcotest.to_alcotest prop_member_matches_map_model ] );
      ( "renderers",
        [ QCheck_alcotest.to_alcotest prop_renderers_match_oracles ] );
      ( "hierarchy",
        [
          QCheck_alcotest.to_alcotest prop_hierarchy_random_churn;
          QCheck_alcotest.to_alcotest prop_hierarchy_global_tree_valid;
        ] );
      ( "health",
        [
          QCheck_alcotest.to_alcotest prop_k_missed_safe_under_k_minus_1_losses;
          QCheck_alcotest.to_alcotest
            prop_damping_decays_to_reuse_in_bounded_time;
        ] );
      ( "search",
        [
          QCheck_alcotest.to_alcotest
            prop_search_heuristic_admissible_consistent;
          QCheck_alcotest.to_alcotest prop_search_finds_iff_explore_finds;
          QCheck_alcotest.to_alcotest prop_search_domains_identical;
        ] );
    ]
