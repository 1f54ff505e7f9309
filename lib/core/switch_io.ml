(** What a {!Switch} receives and emits (below it, for its extensions). *)

(** What a switch receives: the payload of an {!Lsr.Lsa.t}. *)
type payload =
  | Mc of Mc_lsa.t  (** An MC LSA ([F = mc]). *)
  | Link of Lsr.Lsdb.link_event  (** A non-MC LSA ([F = ¬mc]). *)
  | Resync of Resync.msg
      (** A resynchronisation message, unicast between neighbors, never
          flooded (see {!Exchange}). *)

(** A timer a switch asks its driver to run: plain data, handed back
    through {!Switch.fire} when due.  A switch never cancels one. *)
type timer =
  | Compute of { switch : int; mc : Mc_id.t; id : int }
      (** The completion of topology computation [id] for [mc], [Tc]
          after switch [switch] started it. *)

(** What a switch emits. *)
type output =
  | Flood of payload  (** An MC LSA, or a link event detected or adopted. *)
  | Send of { peer : int; msg : Resync.msg }
      (** A resynchronisation unicast to a neighbor. *)
  | Changed  (** A topology, member list or MC state changed. *)
  | Start of { timer : timer; delay : float }
      (** Fire [timer] [delay] simulated seconds from now.  Timers due at
          the same instant fire in start order. *)
