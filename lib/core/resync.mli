(** The messages and export rows of the database exchanges
    ({!Exchange}).  A recovering switch unicasts a {!constructor:Summary}
    of its link entries and, per MC, its R/E/C vectors and a tree
    fingerprint; each neighbor answers with a {!constructor:Delta} of
    what the summary proves it lacks.  Messages ride {!Lsr.Flooding.send},
    so under faults they get the Reliable mode's retransmission; one to
    a dead neighbor is lost without a word to its sender. *)

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
