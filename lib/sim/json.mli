(** Minimal JSON values: a hand-rolled parser and printing helpers.

    The repo's serialization formats (dgmc-bench/1, dgmc-trace/1) are
    written by hand; this module is the matching reader, plus the string
    escaping and float rendering rules the writers share.  It supports
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
(** Escape a string's content for embedding between double quotes
    ({!Metrics.Jsonf.escape}). *)

val number : float -> string
(** Render a float: integral values without a fraction part, others with
    17 significant digits so parsing recovers the exact bits.  Non-finite
    values render as [null] ({!Metrics.Jsonf.num}). *)

val member : string -> t -> t option
(** [member key json] — field lookup on objects, [None] otherwise. *)

val to_float : t -> float option

val to_int : t -> int option
(** Numbers with an integral value only. *)

val to_string : t -> string option

val to_list : t -> t list option

val to_bool : t -> bool option
