(** Member-snapshot adoption (extension): an up-to-date proposal's
    member list is authoritative for everything its stamp covers, so a
    switch that missed events across a healed partition catches up
    without replaying them. *)

val adopt : sink:(Switch_io.output -> unit) -> Sim.Engine.t -> self:int ->
  Mc_state.t -> Mc_lsa.t -> unit
(** After Figure 5 line 10, on an LSA whose stamp covers [E]: take its
    snapshot, if any, as the member list ([Changed] if it differs), then
    merge the stamp into the membership cursors and [R]. *)
