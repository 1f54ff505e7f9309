(** Minimal JSON values: a hand-rolled parser and printing helpers.

    The repo's serialization formats (dgmc-trace/1, the run report,
    dgmc-analyze/1, the ledger's records) are written by hand; this
    module is the matching reader, plus the string escaping and float
    rendering rules the writers share.  It supports
    the full JSON grammar (objects, arrays, strings with escapes,
    numbers, booleans, null) — enough to round-trip anything this
    codebase emits, with no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an error. *)

val escape : string -> string
(** Escape a string's content for embedding between double quotes. *)

val number : float -> string
(** Render a float: integral values below 2{^53} without a fraction
    part, other finite values with 17 significant digits, so parsing
    recovers the exact bits and the JSON stays byte-diffable.  Non-finite
    values render as [null]. *)

val member : string -> t -> t option
(** [member key json] — field lookup on objects, [None] otherwise. *)

val to_float : t -> float option

val to_int : t -> int option
(** Numbers with an integral value only. *)

val to_string : t -> string option

val to_list : t -> t list option

val to_bool : t -> bool option
