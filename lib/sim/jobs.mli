(** One-shot jobs that carry data, posted through one engine callback.

    An owner whose timers each carry a value (a scripted input, a
    message in flight) builds one table over the function that runs its
    jobs.  A post stores the job under a {!Slots} id and posts the
    table's callback with that id, once; the callback gives the id back
    and hands the job over.  A job is never called off. *)

type 'a t

val create : Engine.t -> ('a -> unit) -> 'a t
(** [create engine run]: an empty table whose jobs [run] is handed when
    due, each exactly once. *)

val post : 'a t -> delay:float -> 'a -> unit
(** [post t ~delay job], under {!Engine.post}'s rules. *)

val post_at : 'a t -> time:float -> 'a -> unit
(** [post_at t ~time job], under {!Engine.post_at}'s rules. *)

(* dgmc-analyze: allow unused-export — test_sim checks that a table is
   no deeper than its most jobs pending at once *)
val depth : 'a t -> int
(** Ids taken so far: the most jobs pending at once. *)
