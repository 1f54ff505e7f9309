(** Monospace table rendering for figure output.

    [dgmc_sim] prints every figure of the paper as a plain
    table (one row per x-axis point, one column per series); this keeps
    the output greppable and diffable across runs. *)

type align = Left | Right

type t = { align : align list; headers : string list; rows : string list list }
(** A table as data, so one builder feeds the text rendering and a CSV
    export alike. *)

val print :
  ?align:align list -> headers:string list -> string list list -> unit
(** [print ~headers rows] lays the rows out on stdout in columns sized
    to the widest cell, with a rule under the header, followed by a
    newline.  Missing cells print empty; [align] defaults to [Right] for
    every column. *)

val print_table : t -> unit
(** {!print} of a {!t}. *)

val cell_f : float -> string
(** Format a float compactly ([%.3f] with trailing-zero trim). *)

val cell_ci : mean:float -> ci:float -> string
(** ["m ± c"] cell. *)
