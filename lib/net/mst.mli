(** Minimum spanning tree / forest over live links (Kruskal).

    The KMB Steiner heuristic builds an MST of the complete distance graph
    over the connection members; topology generators also use MSTs to make
    random graphs connected. *)

val kruskal : Graph.t -> Graph.edge list
(** Edges of a minimum spanning forest (a tree when the graph is
    connected).  Deterministic: ties are broken by edge endpoints. *)

val mst_of_matrix : float array array -> (int * int * float) list
(** Kruskal over a symmetric distance matrix (a complete graph given
    implicitly); entries of [infinity] denote absent edges.  Used on the
    metric-closure step of the KMB heuristic. *)
