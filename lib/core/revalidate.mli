(** Re-proposal on a contradicted install (extension).  An exchange
    that changes a switch's image invalidates installs made on the old
    one, also of MCs it taught nothing about; the others stay silent,
    which keeps exchanges idempotent. *)

val may_repropose : Mc_state.t -> bool
(** No computation in flight and no LSA outstanding. *)

val contradicted : Net.Graph.t -> Mc_state.t -> bool
(** The install is no longer a valid tree of the image, or no longer
    spans exactly the members. *)

val installs : Net.Graph.t -> Mc_state.t Mc_id.Tbl.t ->
  (Mc_id.t -> Mc_state.t -> unit) -> unit
(** After an exchange changed the image: [installs image states f] runs
    [f], in id order, on each MC that {!may_repropose} and whose install
    is {!contradicted}. *)
