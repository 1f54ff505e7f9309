(** Structured, causally-linked trace of simulation activity.

    A trace is a bounded sequence of {!entry} values: each carries a
    monotonically increasing event id, the id of the event that caused it
    (or [-1] for roots), the simulation time, and a structured {!event}
    payload.  LSA floods therefore replay as trees — an origination is
    the root, each per-link forward points at the origination (or at the
    delivery that triggered the forward), and each delivery points at the
    forward that carried it.

    Protocol code guards every emission with {!enabled}, so the hot path
    costs one branch when tracing is off: no payload is allocated, no id
    is assigned.  Payloads are built only under that guard, and on hot
    paths (every install, origination and applied membership event)
    without [Format]: MC ids, member lists and trees come from their
    types' [to_string] renderers, and a hot note is a concatenated
    string passed to {!record}.  {!recordf} is for cold paths.  Enabled traces retain at most [cap] entries in a ring
    buffer (oldest evicted first, counted by {!dropped}).

    Traces serialize to JSON Lines under the versioned schema
    [dgmc-trace/1]: a header object followed by one object per entry.
    {!read_jsonl} inverts {!write_jsonl} exactly. *)

(** Structured payloads.  Conventions: [switch], [src], [dst], [peer]
    are switch ids; [origin]/[seq] identify an LSA instance network-wide;
    [mc] is the rendered MC identifier ([""] when not MC-specific, e.g.
    link-state LSAs); timestamp vectors ([stamp], [r], [e], [c]) are
    per-member event counts in member order. *)
type event =
  | Lsa_originated of {
      switch : int;
      mc : string;
      seq : int;
      ev : string;  (** what the LSA announces, e.g. [join]/[leave]/[link-down] *)
      proposal : bool;  (** does the LSA carry a tree proposal? *)
      stamp : int array;
    }
  | Lsa_forwarded of {
      src : int;
      dst : int;
      origin : int;
      seq : int;
      retransmit : bool;
    }
  | Lsa_delivered of { switch : int; source : int; origin : int; seq : int }
  | Lsa_dropped of {
      src : int;
      dst : int;
      origin : int;
      seq : int;
      reason : string;  (** [fault], [link-down] or [abandoned] *)
    }
  | Compute_started of { switch : int; mc : string; trigger : string; r : int array }
  | Proposal_made of {
      switch : int;
      mc : string;
      withdrawn : bool;
      stamp : int array;
    }
  | Topology_installed of {
      switch : int;
      mc : string;
      r : int array;
      e : int array;
      c : int array;
      members : string;
      tree : string;
    }
  | Fault_injected of { src : int; dst : int; fault : string }
  | Crash of { switch : int }
  | Recover of { switch : int }
  | Resync of { switch : int; peer : int; mc : string }
  | Link_detected of {
      switch : int;
      peer : int;
      up : bool;
      latency : float;
          (** Seconds since the link's last ground-truth change; [0]
              when [spurious]. *)
      spurious : bool;
          (** The verdict contradicts ground truth — a false positive. *)
    }
      (** A link-health failure detector changed this switch's belief
          about an incident link (category [detect]). *)
  | Link_suppressed of { switch : int; peer : int; resumed : bool }
      (** Flap damping placed the adjacency into — or released it from —
          administrative suppression (category [suppress]). *)
  | Note of { category : string; message : string }

type entry = { id : int; parent : int; time : float; event : event }

type t

val create : ?cap:int -> ?cats:string list -> unit -> t
(** [create ()] retains entries in memory; [cap] bounds them (default
    [1_000_000], ring-buffer eviction); [cats] restricts {e retention} to
    the given categories (ids are still assigned to filtered-out events,
    so causal parents stay meaningful). *)

val disabled : t
(** A shared trace that drops everything. *)

val enabled : t -> bool
(** [true] for every trace but {!disabled}.  Guard event
    construction with this so disabled traces cost one branch. *)

val category : event -> string
(** The event's category: [flood], [forward], [deliver], [drop],
    [compute], [proposal], [install], [fault], [crash], [recover],
    [resync], or a {!Note}'s own category. *)

val emit : t -> time:float -> ?parent:int -> event -> int
(** Append an event; returns its id, or [-1] if the trace is disabled.
    [parent] defaults to the ambient causal context (see
    {!with_context}); pass it explicitly when the causing event's id was
    captured across a scheduling boundary. *)

val context : t -> int
(** The ambient causal context: the id new events default their parent
    to, [-1] when none. *)

val with_context : t -> int -> (unit -> 'a) -> 'a
(** [with_context t id f] runs [f] with the ambient context set to [id]
    (restored afterwards, also on exceptions).  [id = -1] leaves the
    context untouched — so wrapping code in a disabled trace's context is
    free. *)

val record : t -> time:float -> category:string -> string -> unit
(** Record a {!Note} (if the trace is enabled). *)

val recordf :
  t -> time:float -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted {!Note}; the format arguments are not evaluated when the
    trace is disabled.  An enabled call renders through [Format]
    (hundreds of words per note), so hot emission sites use {!record}. *)

val entries : t -> entry list
(** Retained entries, oldest first. *)

val count : t -> int
(** Number of retained entries. *)

val dropped : t -> int
(** Retained-then-evicted entries (ring-buffer overflow). *)

val pp_entry : Format.formatter -> entry -> unit
(** One timeline line: time, id, parent, category and a human rendering
    of the payload. *)

(** {2 JSONL (schema [dgmc-trace/1])} *)

type archive = { a_emitted : int; a_dropped : int; a_entries : entry list }
(** A deserialized trace: header counters ([a_emitted]: ids assigned,
    filtered-out and evicted events included) plus entries oldest
    first. *)

val write_jsonl : t -> path:string -> unit
(** Header line + one JSON object per retained entry. *)

val read_jsonl : path:string -> (archive, string) result
(** Parse what {!write_jsonl} produced; blank lines are skipped.  [Error]
    reads ["line N: reason"], N the offending physical line (blank lines
    counted, from 1), or the I/O failure. *)
