(** The diagnostic record shared by every dgmc linter.

    Both [dgmc_analyze] (OCaml source analysis) and [dgmc_lint]
    (scenario scripts) emit this shape, so downstream tooling — CI,
    editors, dashboards — parses one format.  The JSON
    rendering is one record of the [dgmc-analyze/1] schema. *)

type severity = Error | Warning

type t = {
  file : string;
  line : int;  (** 1-based; 0 means the file as a whole. *)
  col : int;  (** 0-based column of the offending expression. *)
  rule : string;  (** Rule identifier, e.g. ["poly-compare"]. *)
  severity : severity;
  message : string;
}

val compare : t -> t -> int
(** Order by (file, line, col, rule, message) — the stable output
    order. *)

val render : t -> string
(** ["file:line:col: severity: rule: message"] — compiler style. *)

val json : t -> string
(** One JSON object per record (strings escaped via {!Sim.Json}). *)
