(** End-to-end analysis: discover files, scan, apply suppressions,
    classify against a baseline, render. *)

type status = New | Baselined

type result = {
  diags : (Diag.t * status) list;  (** Sorted by {!Diag.compare}. *)
  suppressed : int;
  files_scanned : int;
  unused_suppressions : (string * Suppress.t) list;
      (** Suppression comments that matched no finding; one whose rules
          were all disabled is not listed. *)
}

val run :
  ?enabled:(Rules.id -> bool) -> baseline:Baseline.t -> string list -> result
(** Analyze the [.ml] and [.mli] files under the given files and
    directories; skips [_build], hidden directories, and
    [analysis_fixtures] (the analyzer's own deliberately-failing test
    corpus). *)

val new_count : result -> int
(** Findings not covered by the baseline — nonzero fails the run. *)

val render_human : ?show_baselined:bool -> result -> string

val render_json : result -> string
(** The [kind = "report"] document of the [dgmc-analyze/1] schema. *)
