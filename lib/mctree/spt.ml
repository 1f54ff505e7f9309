let source_rooted g ~root ~receivers =
  let n = Net.Graph.n_nodes g in
  if root < 0 || root >= n then failwith "Spt: root out of range";
  List.iter
    (fun x -> if x < 0 || x >= n then failwith "Spt: receiver out of range")
    receivers;
  let r = Net.Dijkstra.run g root in
  let terminals = List.sort_uniq Int.compare (root :: receivers) in
  (* Each receiver's [pred] chain up to the first node on the tree: each
     node joins once, by the edge to its predecessor. *)
  let on_tree = Bytes.make n '\000' and keys = Array.make (n - 1) 0 and m = ref 0 in
  Bytes.set on_tree root '\001';
  List.iter
    (fun dst ->
      if not (Float.is_finite r.dist.(dst)) then
        failwith (Printf.sprintf "Spt: receiver %d unreachable" dst);
      let x = ref dst in
      while Bytes.get on_tree !x = '\000' do
        Bytes.set on_tree !x '\001';
        let p = r.pred.(!x) in
        keys.(!m) <- (Int.min p !x * n) + Int.max p !x;
        incr m;
        x := p
      done)
    terminals;
  Tree.of_edge_keys ~n ~terminals keys !m
