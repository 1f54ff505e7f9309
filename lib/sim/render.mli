(** One-allocation text: the writer behind the trace payloads'
    renderers ([Mc_id], [Member], [Mctree.Tree] and the switch's
    membership notes).  A renderer sums its pieces' lengths with
    {!int_width} and [String.length], creates one [Bytes] of that
    length, writes the pieces left to right, each call returning the
    position past what it wrote, and turns the bytes into the string
    without a copy.  No [Buffer] grows and no intermediate string is
    built. *)

val int_width : int -> int
(** [String.length (string_of_int n)], for every [n]; allocates
    nothing. *)

val put_int : Bytes.t -> int -> int -> int
(** [put_int b pos n] writes [string_of_int n] at [pos] and returns
    [pos + int_width n]. *)

val put_string : Bytes.t -> int -> string -> int
(** [put_string b pos s] writes [s] at [pos] and returns
    [pos + String.length s]. *)
