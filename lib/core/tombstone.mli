(** Tombstones (extension): the event numbering of a deleted MC.  A
    leave racing with a remote join can delete state while the MC lives
    on; a recreated state counting from zero would read its own events
    as stale, and merged [E] promises could never be met. *)

type t = (Timestamp.t * Timestamp.t * Timestamp.t) Mc_id.Tbl.t
(** [(R, E, membership_seen)] per deleted MC, frozen. *)

val capture : t -> Mc_id.t -> Mc_state.t -> unit
(** When an MC's state is deleted (paper §3.4). *)

val resume : t -> Mc_id.t -> Mc_state.t -> unit
(** When it is recreated: numbering goes on where it left off. *)

val absorb : t -> Mc_lsa.t -> unit
(** On a bare proposal for a deleted MC: one with an empty snapshot and
    a stamp at least the tombstone's [E] merges its stamp into all
    three, so a late copy of a covered join reads as stale. *)

val exports : t -> live:Mc_state.t Mc_id.Tbl.t -> Resync.mc_export list ->
  Resync.mc_export list
(** In a database exchange: add a row, with no members and no tree, for
    each tombstone without a [live] state.  A summary of it lets a
    neighbor still holding the MC push it back; a delta of it replays
    the leaves that emptied the MC. *)
