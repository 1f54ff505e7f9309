let mem_undirected list u v =
  List.exists (fun (a, b) -> (a = u && b = v) || (a = v && b = u)) list

let graph ?(highlight = []) ?(mark = []) g =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "graph network {\n";
  out "  node [shape=circle, fontsize=10];\n";
  for v = 0 to Graph.n_nodes g - 1 do
    if List.mem v mark then
      out "  %d [style=filled, fillcolor=lightblue];\n" v
    else out "  %d;\n" v
  done;
  List.iter
    (fun ((e : Graph.edge), up) ->
      (* dgmc-analyze: allow float-format — Graphviz edge label for human viewing *)
      let attrs = ref [ Printf.sprintf "label=\"%.3g\"" e.weight ] in
      if not up then attrs := "style=dashed" :: "color=red" :: !attrs;
      if mem_undirected highlight e.u e.v then
        attrs := "penwidth=3" :: "color=blue" :: !attrs;
      out "  %d -- %d [%s];\n" e.u e.v (String.concat ", " !attrs))
    (Graph.all_edges g);
  out "}\n";
  Buffer.contents buf
