(** The [unused-export] rule: a [val] declared in a scanned [.mli]
    that no other scanned [.ml] names.

    References are matched syntactically as [Module.name] pairs, so a
    wrapped-library path ([Dgmc.Timestamp.merge]) and an in-library one
    ([Timestamp.merge]) count alike.  An unqualified name counts for
    every module its file opens, a module alias counts for every module
    its chain of aliases reaches (a name aliased to two modules in two
    places counts for both), and a
    module passed as a whole (functor argument, first-class module,
    [include]) counts all of its values.  The rule therefore leans
    towards "used": it may miss a dead export, but it does not report
    one that a scanned file names.  Tests count as callers; files
    outside the scanned paths (the [examples/] programs) do not, so an
    example may only use exports that a scanned file names too. *)

type interface = {
  path : string;
  sup : Suppress.scan;
  vals : (string * string * int * int) list;
      (** (module, value, line, column) of every [val], nested
          [module M : sig ... end] values under [M]. *)
  parse_error : Diag.t option;
}

val load_interface : string -> interface
(** Read and parse one [.mli].  A parse failure is recorded as a
    [parse-error] diagnostic, not raised. *)

type callers
(** The value references of a set of implementations. *)

val callers : Scan.file list -> callers

val check : callers -> interface -> Diag.t list
(** One [unused-export] finding per [val] of the interface that no
    implementation other than its own [.ml] names, after its parse
    error if it has one. *)
