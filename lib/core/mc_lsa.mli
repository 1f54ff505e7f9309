(** MC LSA payloads (paper §3.1).

    An MC LSA is the tuple [(S, F, V, G, P, T)]: source switch [S], the
    MC flag [F] (encoded here by the payload type itself — see
    {!Protocol} — exactly as the paper distinguishes MC from non-MC
    LSAs), an event [V], the connection [G], an optional topology
    proposal [P], and a vector timestamp [T]. *)

type event =
  | Join of Member.role  (** The source switch joins the MC. *)
  | Leave  (** The source switch leaves the MC. *)
  | Link  (** A link/nodal event affected this MC's topology. *)
  | No_event
      (** Triggered LSA: carries a topology proposal but no event
          (paper's [none]). *)

type t = {
  src : int;  (** [S]: originating switch. *)
  event : event;  (** [V]. *)
  mc : Mc_id.t;  (** [G]. *)
  proposal : Mctree.Tree.t option;  (** [P]: complete topology description. *)
  members : Member.t option;
      (** Member-list snapshot as of [stamp], attached to every LSA that
          carries a proposal.  The paper's [P] is "a complete topological
          description of the MC"; carrying the member roles alongside the
          tree lets a switch that missed events (e.g. across a healed
          partition) resynchronise from any accepted proposal. *)
  stamp : Timestamp.t;  (** [T]. *)
}

val make :
  src:int ->
  event:event ->
  mc:Mc_id.t ->
  ?proposal:Mctree.Tree.t ->
  ?members:Member.t ->
  stamp:Timestamp.t ->
  unit ->
  t

val is_event : t -> bool
(** [true] unless [event = No_event]. *)

val is_membership_event : t -> bool
(** [true] for [Join]/[Leave] — the events that modify member lists
    (the paper's "if V ≠ link" at Figure 5 line 8). *)

val event_to_string : event -> string

val applies_note : switch:int -> src:int -> seq:int -> event -> string
(** The trace note of Figure 5's line 8 applying a membership event:
    ["swI applies EVENT from S seq N"], [EVENT] as {!event_to_string}
    renders it.  Written into one [Bytes] of its exact length
    ({!Sim.Render}): traced runs write one per applied event. *)

val skips_note :
  switch:int -> src:int -> seq:int -> seen:int -> event -> string
(** The note of a reordered membership event that is counted but not
    applied, because [seen], at least [seq], of its source's events are
    applied already: ["swI SKIPS stale EVENT from S seq N (seen M)"],
    built like {!applies_note}. *)

val pp : Format.formatter -> t -> unit
