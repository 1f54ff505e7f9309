(** Minimal CSV writing (RFC 4180 quoting) for exporting benchmark
    series to plotting tools. *)

val write : out_channel -> headers:string list -> string list list -> unit
(** Header line plus one line per row, [\n]-terminated, to the
    channel.  A field is quoted when it contains commas, quotes or
    newlines. *)
