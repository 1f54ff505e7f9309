type computation = {
  id : int;
  old_r : Timestamp.t;
  event : Mc_lsa.event;
  proposal : Mctree.Tree.t;
  trace_id : int;
      (** The [Compute_started] trace event, or [-1] untraced — the
          completion runs when the driver fires the computation's timer,
          where the ambient trace context is long gone, so causality is
          carried explicitly. *)
}

type t = {
  mutable r : Timestamp.t;
  mutable e : Timestamp.t;
  mutable c : Timestamp.t;
  mutable flag : bool;
  mutable members : Member.t;
  mutable topology : Mctree.Tree.t;
  mutable membership_seen : Timestamp.t;
  mailbox : Mc_lsa.t Queue.t;
  mutable event_computations : computation list;
  mutable triggered : computation option;
}

(* One frozen zero serves all four stamps: the first in-place update of
   [r], [e] or [membership_seen] copies it into that field's own buffer. *)
let create ~n =
  let zero = Timestamp.zero n in
  {
    r = zero;
    e = zero;
    c = zero;
    flag = false;
    members = Member.empty;
    topology = Mctree.Tree.empty;
    membership_seen = zero;
    mailbox = Queue.create ();
    event_computations = [];
    triggered = None;
  }
