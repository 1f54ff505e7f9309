(** JSON fragment rendering shared by every hand-written JSON writer in
    the repo; [Sim.Json.number]/[Sim.Json.escape] are these functions. *)

val num : float -> string
(** Round-trip float rendering: integral floats below 2{^53} print as
    integers, other finite values as [%.17g], so a printed value parses
    back to the same float and the JSON stays byte-diffable.  Non-finite
    values render as [null]. *)

val escape : string -> string
(** Escape a string for inclusion between JSON double quotes. *)
