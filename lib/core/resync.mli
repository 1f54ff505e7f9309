(** Crash-recovery database resynchronisation messages (extension).

    The paper assumes every LSA reaches every live switch, so it has no
    recovery story: a switch whose forwarding plane was down for a window
    silently misses installs and diverges forever.  On recovery a switch
    therefore runs an OSPF-style database exchange with its live
    neighbors, handling MC LSAs as they arrive meanwhile (see
    {!Switch.begin_resync} and DESIGN.md):

    - it unicasts a {!constructor:Summary} of everything it knows — its
      versioned link-state entries, and per MC its R/E/C vectors plus a
      compact {!Mctree.Tree.fingerprint} of its installed tree;
    - each neighbor answers with a {!constructor:Delta} containing only
      what the summary proves the recoverer is behind on: link entries
      with newer versions, and full per-MC state exports where the
      neighbor knows events the summary's R does not cover (or holds a
      different same-stamp tree);
    - the recoverer applies the first delta echoing its session and
      finishes: one up-to-date neighbor carries the full missed history.
      The session id gates the deltas: an answer to a superseded
      session, or a second answer, is dropped.

    Messages ride the regular {!Lsr.Flooding} transport in unicast mode
    ({!Lsr.Flooding.send}), so under faults they get the Reliable mode's
    ack/retransmit/backoff for free; a message to a dead neighbor is
    lost without a word to its sender.  A session whose summaries are
    all lost never finishes, which costs nothing: it defers no LSA and
    holds no timer, and the next recovery supersedes it. *)

type mc_summary = {
  sum_mc : Mc_id.t;
  sum_r : Timestamp.t;
  sum_e : Timestamp.t;
  sum_c : Timestamp.t;
  sum_tree_fp : string;  (** {!Mctree.Tree.fingerprint} of the install. *)
}
(** One MC's compact digest in a summary: enough for a neighbor to
    decide whether it knows anything the recoverer lacks, without
    shipping members or trees. *)

type mc_export = {
  exp_mc : Mc_id.t;
  exp_r : Timestamp.t;
  exp_e : Timestamp.t;
  exp_c : Timestamp.t;
  exp_members : Member.t;
  exp_membership_seen : Timestamp.t;
  exp_topology : Mctree.Tree.t;
}
(** One MC's full transferable state in a delta.  A tombstoned MC
    exports its surviving accounting (R/E/membership cursors) with an
    empty member list and topology. *)

type msg =
  | Summary of {
      session : int;  (** Recoverer-chosen exchange id; deltas echo it. *)
      origin : int;  (** The recovering switch. *)
      links : Lsr.Lsdb.link_event list;  (** {!Lsr.Lsdb.entries}. *)
      mcs : mc_summary list;
    }
  | Delta of {
      session : int;  (** Echoed from the summary answered. *)
      origin : int;  (** The responding neighbor. *)
      links : Lsr.Lsdb.link_event list;
          (** Entries strictly newer than the summary's. *)
      mcs : mc_export list;
    }

val to_string : msg -> string
(** Compact line-oriented rendering, one header line then one line per
    link entry and per MC record; equal messages render equally. *)
