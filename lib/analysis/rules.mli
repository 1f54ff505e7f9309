(** The rule registry of [dgmc_analyze].

    Every rule is individually toggleable from the command line
    ([--rules] / [--disable]) and addressable from suppression comments
    ([(* dgmc-analyze: allow <rule> — reason *)]) by its {!name}.
    [Parse_error] is a pseudo-rule for sources the parser rejects; it
    cannot be suppressed. *)

type id =
  | Nondet_source
  | Iteration_order
  | Poly_compare
  | Float_format
  | Domain_unsafe_capture
  | Unused_export
  | Parse_error

val all : id list

val name : id -> string
(** Kebab-case identifier, e.g. ["iteration-order"]. *)

val of_name : string -> id option

val describe : id -> string
(** One-line summary shown by [--list-rules]. *)
