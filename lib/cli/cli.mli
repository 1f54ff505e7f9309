(** What the command-line programs share. *)

val open_out : prog:string -> string -> out_channel
(** [open_out ~prog path] opens [path] for writing, truncating it, or
    prints [PROG: PATH: reason] on stderr and exits 2.  A program opens
    its output files with it before any work, so an unwritable path
    fails at once. *)
