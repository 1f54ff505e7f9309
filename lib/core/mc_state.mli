(** Per-switch, per-MC protocol state (paper §3.2, Figure 3).

    Each switch keeps, for every MC it knows of: the three vector
    timestamps [R] (events received), [E] (events expected) and [C]
    (state the current topology is based on); the [make_proposal_flag]
    shared between the two protocol entities; its image of the member
    list and of the MC topology; and the mailbox of MC LSAs waiting to
    be consumed by [ReceiveLSA()]. *)

type computation = {
  old_r : Timestamp.t;  (** [R] saved when the computation started. *)
  event : Mc_lsa.event;
      (** Event the resulting LSA advertises ([No_event] for triggered
          computations). *)
  proposal : Mctree.Tree.t;
      (** Result — fixed by the inputs at start time; the protocol
          decides at completion whether it is still valid to flood. *)
  handle : Sim.Engine.handle;  (** Scheduled completion, cancellable. *)
  trace_id : int;
      (** Trace id of the [Compute_started] event ([-1] untraced) — the
          completion fires from an engine timer where the ambient trace
          context is gone, so the causal link is carried explicitly. *)
}

type t = {
  mutable r : Timestamp.t;
  mutable e : Timestamp.t;
  mutable c : Timestamp.t;
  mutable flag : bool;  (** [make_proposal_flag]. *)
  mutable members : Member.t;
  mutable topology : Mctree.Tree.t;
  mutable membership_seen : Timestamp.t;
      (** Component [s] is the highest [T\[s\]] among membership LSAs
          from [s] whose join/leave has been applied; stale (reordered)
          membership LSAs still count as events but do not regress the
          member list.  A per-source max cursor, so a stamp: it only
          ever rises by {!Timestamp.raise_to} and {!Timestamp.merge},
          and it holds only the sources that issued membership events. *)
  mailbox : Mc_lsa.t Queue.t;
  mutable event_computations : computation list;
      (** In-flight [EventHandler()] computations, any number (the
          paper's entities run concurrently). *)
  mutable triggered : computation option;
      (** In-flight [ReceiveLSA()] computation; while one is pending the
          mailbox accumulates, exactly as the paper's single-process
          [ReceiveLSA()] loop implies. *)
}

val create : n:int -> t
(** Fresh state for an n-switch network: zero timestamps, no members,
    empty topology.  Allocates O(1) words whatever [n] is: the zero
    stamps hold no components. *)
