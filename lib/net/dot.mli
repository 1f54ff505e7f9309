(** Graphviz (DOT) export of network graphs, optionally highlighting an
    embedded structure such as an MC topology.

    [dune exec bin/dgmc_sim.exe -- topo --dot | dot -Tsvg] renders a
    generated topology; tests and examples use it to produce inspectable
    artifacts. *)

val graph :
  ?highlight:(int * int) list ->
  ?mark:int list ->
  Graph.t ->
  string
(** [graph g] is a DOT [graph] document with one node per switch and one
    edge per link (down links dashed, weights as labels).  [highlight]
    edges are drawn bold (undirected match); [mark] nodes are drawn
    filled — pass an MC's tree edges and member switches to visualise a
    connection. *)
