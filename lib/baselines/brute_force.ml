type membership_lsa = {
  src : int;
  mc : Dgmc.Mc_id.t;
  change : [ `Join of Dgmc.Member.role | `Leave ];
}

(* Switch [switch]'s state for [mc]; [id] is its index in [t.by_id],
   which its recomputations are posted with. *)
type mc_state = {
  id : int;
  switch : int;
  mc : Dgmc.Mc_id.t;
  mutable members : Dgmc.Member.t;
  mutable topology : Mctree.Tree.t;
}

type totals = {
  events : int;
  computations : int;
  floodings : int;
  messages : int;
}

module Member_map = Map.Make (Dgmc.Member)

(* Trees already computed on graph version [version], per MC and member
   set.  While the graph is connected a from-scratch computation never
   reads [~self] (the partition fallback is the only reader), so every
   switch holding the same members gets the same tree.  Entries live
   until the graph version moves. *)
type memo = {
  mutable version : int;
  mutable connected : bool;
  trees : Mctree.Tree.t Member_map.t Dgmc.Mc_id.Tbl.t;
}

type t = {
  engine : Sim.Engine.t;
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  flooding : membership_lsa Lsr.Flooding.t;
  seqs : Lsr.Lsa.Seq.counter array;
  states : mc_state Dgmc.Mc_id.Tbl.t array;  (** Per switch. *)
  mutable by_id : mc_state array;  (** Every state, by [id]. *)
  mutable n_states : int;
  recompute : Sim.Engine.callback;  (** {!computed}, posted with an [id]. *)
  inputs : membership_lsa Sim.Jobs.t;  (** Scripted changes. *)
  memo : memo;
  mutable events : int;
  mutable computations : int;
}

let state_of t switch mc =
  match Dgmc.Mc_id.Tbl.find_opt t.states.(switch) mc with
  | Some st -> st
  | None ->
    let members = Dgmc.Member.empty and topology = Mctree.Tree.empty in
    let st = { id = t.n_states; switch; mc; members; topology } in
    if st.id = Array.length t.by_id then
      t.by_id <- Array.append t.by_id (Array.make (max 16 st.id) st);
    t.by_id.(st.id) <- st;
    t.n_states <- st.id + 1;
    Dgmc.Mc_id.Tbl.replace t.states.(switch) mc st;
    st

let compute t switch mc members =
  Dgmc.Compute.topology t.config mc.Dgmc.Mc_id.kind t.graph members ~self:switch
    ~current:None

let memoised t switch mc members =
  let memo = t.memo in
  let version = Net.Graph.version t.graph in
  if version <> memo.version then begin
    Dgmc.Mc_id.Tbl.reset memo.trees;
    memo.version <- version;
    memo.connected <- Net.Bfs.is_connected t.graph
  end;
  if not memo.connected then compute t switch mc members
  else
    let trees =
      Option.value ~default:Member_map.empty
        (Dgmc.Mc_id.Tbl.find_opt memo.trees mc)
    in
    match Member_map.find_opt members trees with
    | Some tree -> tree
    | None ->
      let tree = compute t switch mc members in
      Dgmc.Mc_id.Tbl.replace memo.trees mc (Member_map.add members tree trees);
      tree

(* Switch [switch] applies a membership change and recomputes.  Every
   switch recomputes from scratch on every membership LSA: this is
   precisely the redundancy D-GMC removes, and [tc] and [computations]
   charge it in full.  The simulator itself computes each (graph version,
   MC, member set) tree once and hands every switch that shared tree. *)
let learn t switch { src; mc; change } =
  let st = state_of t switch mc in
  (match change with
  | `Join role -> st.members <- Dgmc.Member.join st.members src role
  | `Leave -> st.members <- Dgmc.Member.leave st.members src);
  Sim.Engine.post t.engine ~delay:t.config.Dgmc.Config.tc t.recompute st.id

(* The recomputation of state [id] completes. *)
let computed t id =
  let st = t.by_id.(id) in
  t.computations <- t.computations + 1;
  st.topology <- memoised t st.switch st.mc st.members

(* A scripted membership change at switch [src]: learnt there, then
   flooded as the LSA it is. *)
let local_event t lsa =
  t.events <- t.events + 1;
  learn t lsa.src lsa;
  let seq = Lsr.Lsa.Seq.next t.seqs.(lsa.src) in
  Lsr.Flooding.flood t.flooding (Lsr.Lsa.make ~origin:lsa.src ~seq lsa)

let create ~graph ~config () =
  let n = Net.Graph.n_nodes graph in
  if n < 2 then invalid_arg "Brute_force.create: need at least 2 switches";
  let engine = Sim.Engine.create () in
  (* Deliveries, recomputations and scripted changes run against the
     whole record: a lazy value, forced before any can run. *)
  let rec t =
    lazy
      {
        engine;
        graph;
        config = { config with Dgmc.Config.computation = Scratch };
        flooding =
          Lsr.Flooding.create ~engine ~graph ~t_hop:config.Dgmc.Config.t_hop
            ~mode:config.Dgmc.Config.flood_mode
            ~deliver:(fun ~switch lsa ->
              learn (Lazy.force t) switch lsa.payload)
            ();
        seqs = Array.init n (fun _ -> Lsr.Lsa.Seq.create ());
        states = Array.init n (fun _ -> Dgmc.Mc_id.Tbl.create 4);
        by_id = [||];
        n_states = 0;
        recompute = Sim.Engine.callback (fun id -> computed (Lazy.force t) id);
        inputs =
          Sim.Jobs.create engine (fun lsa -> local_event (Lazy.force t) lsa);
        memo =
          { version = -1; connected = false; trees = Dgmc.Mc_id.Tbl.create 4 };
        events = 0;
        computations = 0;
      }
  in
  Lazy.force t

let engine t = t.engine

let schedule_join t ~at ~switch mc role =
  Sim.Jobs.post_at t.inputs ~time:at { src = switch; mc; change = `Join role }

let schedule_leave t ~at ~switch mc =
  Sim.Jobs.post_at t.inputs ~time:at { src = switch; mc; change = `Leave }

let run t = Sim.Engine.run t.engine

let totals t =
  {
    events = t.events;
    computations = t.computations;
    floodings = Lsr.Flooding.floods_started t.flooding;
    messages = Lsr.Flooding.messages_sent t.flooding;
  }

let topology t ~switch mc =
  Option.map
    (fun st -> st.topology)
    (Dgmc.Mc_id.Tbl.find_opt t.states.(switch) mc)

let converged t mc =
  let reference = ref None in
  Array.for_all
    (fun table ->
      match Dgmc.Mc_id.Tbl.find_opt table mc with
      | None -> true
      | Some st -> (
        match !reference with
        | None ->
          reference := Some st;
          true
        | Some r ->
          Dgmc.Member.equal r.members st.members
          && Mctree.Tree.equal r.topology st.topology))
    t.states
