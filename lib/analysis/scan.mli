(** AST-level rule checks over OCaml sources (compiler-libs Parsetree).

    Rules are syntactic approximations of the determinism and
    domain-safety contracts documented in DESIGN.md §5: every hit is a
    true positive or a site worth a written suppression rationale. *)

type file = {
  path : string;
  modname : string;  (** Capitalized basename — the module this file defines. *)
  source : string;
  structure : Parsetree.structure;  (** Empty when the file does not parse. *)
  parse_error : Diag.t option;
  sup : Suppress.scan;
  top_mutables : (string * int) list;
      (** Top-level bindings initialised to [ref]/[Hashtbl.create]/
          [Buffer.create]/[Array.make]/... with their definition line. *)
  top_refs : (string * string list) list;
      (** Identifier paths referenced by each top-level binding's body
          (used to resolve closures passed by name). *)
  top_defs : (string * int) list;
}

type env
(** Cross-file context: every top-level mutable binding in the analyzed
    set, so a closure in one module capturing another module's global is
    caught. *)

val read : (Lexing.lexbuf -> 'a) -> string -> string * ('a, Diag.t) result
(** [read parser path]: the file's source, and its parse tree or the
    [parse-error] diagnostic (never raised). *)

val modname_of_path : string -> string
(** Capitalized basename — the module a source file defines. *)

val load : string -> file
(** Read and parse one [.ml] file.  Parse failures are recorded as a
    [parse-error] diagnostic, not raised. *)

val env_of : file list -> env

val check : env -> enabled:(Rules.id -> bool) -> file -> Diag.t list
(** Raw findings for one file, before suppression filtering, in source
    order.  Includes the parse error (if any) and
    malformed suppression comments (rule ["suppression-syntax"],
    warnings). *)
