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
    is assigned.

    {b The store is columns.}  An enabled trace keeps its entries in
    parallel arrays: ids, parents, kinds and times for every entry,
    four int payload columns, and one column of boxed {!event}s for the
    kinds that carry a string or a float.  The columns start empty and
    grow a chunk of 1,024 entries at a time, without copying, up to
    [cap]; then they turn into a ring (oldest evicted first, counted by
    {!dropped}).  The per-copy flood events —
    forwards, deliveries and drops, most of a traced run's entries —
    and crashes, recoveries and suppressions live in the int columns
    alone.  Flooding records them through {!forward}, {!deliver} and
    {!drop}, which allocate nothing once the columns have grown, and
    runs a delivery under its context with {!set_context} and
    {!restore_context}, which allocate nothing either.  {!entries}
    builds the records back when a trace is read.

    Other payloads are built only under the {!enabled} guard, and on
    hot paths (every install, origination and applied membership event)
    without [Format]: MC ids, member lists and trees come from their
    types' [to_string] renderers, and a hot note is a concatenated
    string passed to {!record}.  {!recordf} is for cold paths.
    Timestamp vectors are {!stamp}s: their nonzero components only,
    copied from the protocol's own sparse storage, and rendered dense
    by {!pp_entry} and the JSONL writer.

    Traces serialize to JSON Lines under the versioned schema
    [dgmc-trace/1]: a header object followed by one object per entry.
    {!read_jsonl} inverts {!write_jsonl} exactly. *)

(** A timestamp vector of [size] components, stored sparse: [nonzero]
    interleaves the nonzero components as [[| x0; c0; x1; c1; ... |]]
    with [x0 < x1 < ...] and every [c] nonzero, so two stamps with the
    same dense view are equal. *)
type stamp = { size : int; nonzero : int array }

(** Structured payloads.  Conventions: [switch], [src], [dst], [peer]
    are switch ids; [origin]/[seq] identify an LSA instance network-wide;
    [mc] is the rendered MC identifier ([""] when not MC-specific, e.g.
    link-state LSAs); timestamp vectors ([stamp], [r], [e], [c]) are
    per-switch event counts, as {!stamp}s. *)
type event =
  | Lsa_originated of {
      switch : int;
      mc : string;
      seq : int;
      ev : string;  (** what the LSA announces, e.g. [join]/[leave]/[link-down] *)
      proposal : bool;  (** does the LSA carry a tree proposal? *)
      stamp : stamp;
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
  | Compute_started of { switch : int; mc : string; trigger : string; r : stamp }
  | Proposal_made of {
      switch : int;
      mc : string;
      withdrawn : bool;
      stamp : stamp;
    }
  | Topology_installed of {
      switch : int;
      mc : string;
      r : stamp;
      e : stamp;
      c : stamp;
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
    [resync], [detect], [suppress], or a {!Note}'s own category. *)

val categories : string list
(** Every category this library's traces carry: each structured
    event's, then the notes' ([member], [adopt], [mc-delete], [truth],
    [partition], [violation]; [detect] and [resync] notes share their
    structured events' names). *)

val emit : t -> time:float -> ?parent:int -> event -> int
(** Append an event; returns its id, or [-1] if the trace is disabled.
    [parent] defaults to the ambient causal context (see
    {!set_context}); pass it explicitly when the causing event's id was
    captured across a scheduling boundary. *)

(** {2 Per-copy flood events}

    [emit] of the matching {!event}, without building it: each writes
    the int columns only, and allocates nothing once they have grown.
    A [parent] below 0 stands for the ambient context. *)

type reason =
  | Fault  (** an injected loss *)
  | Link_down  (** the link failed while the copy was in flight *)
  | Abandoned  (** a reliable transfer ran out of retries *)
  | Neighbor_down
      (** the health layer declared the neighbor dead (see
          [Flooding.abandon_link]) *)

val forward :
  t -> time:float -> parent:int -> src:int -> dst:int -> origin:int ->
  seq:int -> retransmit:bool -> int
(** [Lsa_forwarded]; its id, or [-1] if the trace is disabled. *)

val deliver :
  t -> time:float -> parent:int -> switch:int -> source:int -> origin:int ->
  seq:int -> int
(** [Lsa_delivered]; its id, or [-1] if the trace is disabled. *)

val drop :
  t -> time:float -> parent:int -> src:int -> dst:int -> origin:int ->
  seq:int -> reason -> unit
(** [Lsa_dropped], its [reason] field [fault], [link-down], [abandoned]
    or [neighbor-down]. *)

(** {2 Causal context} *)

val context : t -> int
(** The ambient causal context: the id new events default their parent
    to, [-1] when none. *)

val set_context : t -> int -> int
(** [set_context t id] makes [id] the ambient context and returns the
    context it replaces, to hand to {!restore_context} when the code
    that runs under [id] returns or raises.  [id < 0] leaves the
    context as it is, so a disabled trace's context is never written.
    Allocates nothing. *)

val restore_context : t -> int -> unit
(** Put back the context {!set_context} returned. *)

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

val write_jsonl : t -> out_channel -> unit
(** Header line + one JSON object per retained entry, to the channel. *)

val read_jsonl : path:string -> (archive, string) result
(** Parse what {!write_jsonl} produced; blank lines are skipped.  [Error]
    reads ["line N: reason"], N the offending physical line (blank lines
    counted, from 1), or the I/O failure. *)
