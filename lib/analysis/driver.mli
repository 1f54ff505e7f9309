(** End-to-end analysis: discover files, scan, apply suppressions,
    render. *)

type result = {
  diags : Diag.t list;
      (** Findings no suppression covers, sorted by {!Diag.compare};
          any one fails the run. *)
  suppressed : int;
  files_scanned : int;
  unused_suppressions : (string * Suppress.t) list;
      (** Suppression comments that matched no finding; one whose rules
          were all disabled is not listed. *)
}

val run : enabled:(Rules.id -> bool) -> string list -> result
(** Analyze the [.ml] and [.mli] files under the given files and
    directories with the [enabled] rules; skips [_build], hidden directories, and
    [analysis_fixtures] (the analyzer's own deliberately-failing test
    corpus). *)

val render_human : result -> string

val render_json : result -> string
(** The [kind = "report"] document of the [dgmc-analyze/1] schema: one
    {!Diag.json} record per finding. *)
