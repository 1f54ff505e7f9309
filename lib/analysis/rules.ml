type id =
  | Nondet_source
  | Iteration_order
  | Poly_compare
  | Float_format
  | Domain_unsafe_capture
  | Unused_export
  | Parse_error

let all =
  [
    Nondet_source;
    Iteration_order;
    Poly_compare;
    Float_format;
    Domain_unsafe_capture;
    Unused_export;
    Parse_error;
  ]

let name = function
  | Nondet_source -> "nondet-source"
  | Iteration_order -> "iteration-order"
  | Poly_compare -> "poly-compare"
  | Float_format -> "float-format"
  | Domain_unsafe_capture -> "domain-unsafe-capture"
  | Unused_export -> "unused-export"
  | Parse_error -> "parse-error"

let of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "nondet-source" -> Some Nondet_source
  | "iteration-order" -> Some Iteration_order
  | "poly-compare" -> Some Poly_compare
  | "float-format" -> Some Float_format
  | "domain-unsafe-capture" -> Some Domain_unsafe_capture
  | "unused-export" -> Some Unused_export
  | "parse-error" -> Some Parse_error
  | _ -> None

let describe = function
  | Nondet_source ->
    "ambient nondeterminism: Random.*, Unix.gettimeofday/Unix.time/Sys.time \
     outside the sim clock, Hashtbl.hash on unconstrained values"
  | Iteration_order ->
    "Hashtbl.iter/fold whose result feeds output or state without a sort"
  | Poly_compare ->
    "polymorphic compare/(=) where a typed comparison is required for \
     deterministic, future-proof ordering"
  | Float_format ->
    "float printed with a non-round-trip format (schemas require %.17g or %h)"
  | Domain_unsafe_capture ->
    "top-level mutable state captured by a closure passed to Runner.Pool or \
     Domain.spawn without Domain.DLS / Mutex / Atomic"
  | Unused_export ->
    "val in a scanned .mli that no other scanned file references as \
     Module.name (tests count as callers)"
  | Parse_error -> "source file does not parse"
