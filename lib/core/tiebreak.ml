let supersedes ~stamp ~tree ~held_stamp ~held_tree =
  Timestamp.gt stamp held_stamp
  || (Timestamp.equal stamp held_stamp
     && Mctree.Tree.compare tree held_tree < 0)
