(** The proposal tie-break (extension).  Incremental updates (§3.5) are
    history-dependent, so switches with the same knowledge can flood
    different trees under one stamp.  Preferring the least tree by
    {!Mctree.Tree.compare} restores the determinism the paper assumes:
    every switch sees every proposal, so all pick the same winner. *)

val supersedes : stamp:Timestamp.t -> tree:Mctree.Tree.t ->
  held_stamp:Timestamp.t -> held_tree:Mctree.Tree.t -> bool
(** Before install (Figure 5 lines 11-14 and 32-35, an exchange's
    adoption): the proposal's stamp is higher than the held one's (the
    paper's rule), or equal with a smaller tree. *)
