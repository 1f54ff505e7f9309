(** The per-switch hello agent: periodic keepalives out, a failure
    detector (and optional flap damping) per configured adjacency in.

    The agent never touches the network or the protocol directly — the
    embedder supplies [send] (put one hello on the wire towards a peer)
    and [declare] (this switch's belief about an incident link changed;
    originate the LSA).  Hellos keep flowing regardless of belief — a
    down link must keep being probed or recovery would never be seen —
    but stop towards a peer whose adjacency is damping-suppressed: a
    suppressed interface is held down in both directions, which is what
    keeps the remote end from believing the link is usable.

    The agent senses links, not switches: it has no notion of a crash
    or partition window ([Dgmc.Protocol.create] rejects them).  All
    timers live on the simulation engine; emission and evaluation stop
    at the configured horizon so runs quiesce. *)

type t

val create :
  engine:Sim.Engine.t ->
  config:Config.t ->
  peers:int list ->
  send:(peer:int -> unit) ->
  declare:(peer:int -> up:bool -> unit) ->
  on_suppress:(peer:int -> resumed:bool -> unit) ->
  t
(** [peers] are the switches sharing a configured (up or down) edge with
    the agent's switch; every adjacency starts believed up with a fresh detector.
    [declare] is invoked only on belief {e changes}, [on_suppress] when
    damping suppresses ([resumed = false]) or readmits an adjacency. *)

val start : t -> unit
(** Begin the hello schedule (first round immediately) and arm the
    per-adjacency down-verdict checks.  Call once, before running. *)

val on_hello : t -> from:int -> unit
(** A hello from [from] arrived on the wire.  Ignored while the
    adjacency is suppressed (the interface is administratively down). *)

val suppressed : t -> int list
(** The peers whose adjacency is damping-suppressed now, ascending. *)

val flaps : t -> int
(** Total down declarations made by this agent. *)
