(** Committed inventory of accepted pre-existing findings.

    Keyed by (file, rule) with a count: counts survive unrelated edits
    (line numbers would not), and a rule firing more often than its
    baseline count in a file is a {e new} finding.  Serialized as the
    [kind = "baseline"] document of the [dgmc-analyze/1] schema. *)

type entry = { b_file : string; b_rule : string; b_count : int }

type t = entry list

val empty : t

val of_diags : Diag.t list -> t
(** Aggregate current findings into baseline entries (sorted). *)

val count : t -> file:string -> rule:string -> int

val load : string -> (t, string) result
(** A missing file is an empty baseline, not an error. *)

val save : string -> t -> unit
