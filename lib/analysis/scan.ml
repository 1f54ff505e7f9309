(* AST-level rule checks over one parsed source file.

   The scanner works on the Parsetree (compiler-libs), not the typed
   tree: rules are deliberately syntactic approximations, tuned so that
   every hit is either a true positive, a site worth a written
   suppression rationale, or a pre-existing finding held in the
   committed baseline.  See DESIGN.md §5 for the catalogue. *)

open Parsetree

type file = {
  path : string;
  modname : string;
  source : string;
  structure : structure;
  parse_error : Diag.t option;
  sup : Suppress.scan;
  top_mutables : (string * int) list;  (* name -> definition line *)
  top_refs : (string * string list) list;  (* top binding -> idents used *)
  top_defs : (string * int) list;  (* every top-level binding name -> line *)
}

type env = {
  (* Every top-level mutable binding across the analyzed file set:
     (module name, value name, file, definition line). *)
  globals : (string * string * string * int) list;
}

(* ------------------------------------------------------------------ *)
(* Longident / expression helpers *)

let path_of_lid lid = String.concat "." (Longident.flatten lid)

let path_of_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (path_of_lid txt)
  | _ -> None

let head_path e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> path_of_expr f
  | _ -> path_of_expr e

let line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

(* All identifier paths referenced anywhere under an expression. *)
let idents_of_expr e =
  let acc = ref [] in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> acc := path_of_lid txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  iter.expr iter e;
  !acc

(* ------------------------------------------------------------------ *)
(* Loading and per-file collection *)

let mutable_ctors =
  [
    "ref";
    "Stdlib.ref";
    "Hashtbl.create";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
    "Bytes.create";
    "Bytes.make";
    "Array.make";
    "Array.init";
    "Array.create_float";
  ]

let rec mutable_kind e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> mutable_kind e
  | Pexp_apply (f, _) -> (
    match path_of_expr f with
    | Some p when List.mem p mutable_ctors -> Some p
    | _ -> None)
  | _ -> None

let top_level_bindings structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.filter_map
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> Some (txt, vb)
            | _ -> None)
          vbs
      | _ -> [])
    structure

let modname_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let read parser path =
  let source =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match parser lexbuf with
  | ast -> (source, Ok ast)
  | exception exn ->
    let line =
      match exn with
      | Syntaxerr.Error _ -> lexbuf.lex_curr_p.pos_lnum
      | _ -> 0
    in
    ( source,
      Error
        {
          Diag.file = path;
          line;
          col = 0;
          rule = Rules.name Rules.Parse_error;
          severity = Diag.Error;
          message = Printexc.to_string exn;
        } )

let load path =
  let source, parsed = read Parse.implementation path in
  let sup = Suppress.scan source in
  let structure, parse_error =
    match parsed with Ok s -> (s, None) | Error d -> ([], Some d)
  in
  let tops = top_level_bindings structure in
  let top_mutables =
    List.filter_map
      (fun (name, vb) ->
        match mutable_kind vb.pvb_expr with
        | Some _ -> Some (name, fst (line_col vb.pvb_loc))
        | None -> None)
      tops
  in
  let top_refs = List.map (fun (name, vb) -> (name, idents_of_expr vb.pvb_expr)) tops in
  let top_defs = List.map (fun (name, vb) -> (name, fst (line_col vb.pvb_loc))) tops in
  {
    path;
    modname = modname_of_path path;
    source;
    structure;
    parse_error;
    sup;
    top_mutables;
    top_refs;
    top_defs;
  }

let env_of files =
  {
    globals =
      List.concat_map
        (fun f ->
          List.map
            (fun (name, line) -> (f.modname, name, f.path, line))
            f.top_mutables)
        files;
  }

(* ------------------------------------------------------------------ *)
(* Rules *)

let sort_fns =
  [
    "List.sort";
    "List.sort_uniq";
    "List.stable_sort";
    "List.fast_sort";
    "Array.sort";
    "Array.stable_sort";
    "Array.fast_sort";
  ]

let head_is_sort e =
  match head_path e with Some p -> List.mem p sort_fns | None -> false

let in_sorted_context ancestors =
  List.exists
    (fun a ->
      match a.pexp_desc with
      | Pexp_apply (f, args) -> (
        match path_of_expr f with
        | Some p when List.mem p sort_fns -> true
        | Some ("|>" | "@@") -> List.exists (fun (_, arg) -> head_is_sort arg) args
        | _ -> false)
      | _ -> false)
    ancestors

let rec is_compound e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | Pexp_constraint (e, _) -> is_compound e
  | _ -> false

let printf_like path =
  let last =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  let last = String.lowercase_ascii last in
  let contains_sub s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  contains_sub last "printf" || last = "failf" || last = "sprintf"

(* Conversion specs in a format literal that print floats without
   round-tripping.  Allowed: %h / %H always, and %g with precision
   exactly 17. *)
let bad_float_specs s =
  let n = String.length s in
  let bad = ref [] in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '%' then begin
      let start = !i in
      incr i;
      (* flags *)
      while
        !i < n
        && (match s.[!i] with
           | '-' | '+' | ' ' | '#' | '0' -> true
           | _ -> false)
      do
        incr i
      done;
      (* width *)
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do incr i done;
      if !i < n && s.[!i] = '*' then incr i;
      (* precision *)
      let precision = ref None in
      if !i < n && s.[!i] = '.' then begin
        incr i;
        let p0 = !i in
        while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do incr i done;
        precision := Some (String.sub s p0 (!i - p0))
      end;
      if !i < n then begin
        (match s.[!i] with
        | 'f' | 'F' | 'e' | 'E' ->
          bad := String.sub s start (!i - start + 1) :: !bad
        | 'g' | 'G' ->
          (match !precision with
          | Some "17" -> ()
          | Some _ | None ->
            bad := String.sub s start (!i - start + 1) :: !bad)
        | _ -> ());
        incr i
      end
    end
    else incr i
  done;
  List.rev !bad

let pool_entry_points path =
  match String.rindex_opt path '.' with
  | Some i ->
    let last = String.sub path (i + 1) (String.length path - i - 1) in
    let prefix = String.sub path 0 i in
    let pool =
      prefix = "Pool"
      || (String.length prefix >= 5
         && String.sub prefix (String.length prefix - 5) 5 = ".Pool")
      || String.starts_with ~prefix:"Runner.Pool" path
    in
    (pool && List.mem last [ "map"; "map_timed" ])
    || path = "Domain.spawn"
  | None -> false

let dls_guarded refs =
  List.exists
    (fun r ->
      String.starts_with ~prefix:"Domain.DLS" r
      || String.starts_with ~prefix:"Mutex." r
      || String.starts_with ~prefix:"Atomic." r)
    refs

(* ------------------------------------------------------------------ *)

let check env ~enabled file =
  let diags = ref [] in
  let add ~loc rule message =
    let line, col = line_col loc in
    diags :=
      {
        Diag.file = file.path;
        line;
        col;
        rule = Rules.name rule;
        severity = Diag.Error;
        message;
      }
      :: !diags
  in
  let on = enabled in
  let defines_compare_before line =
    List.exists (fun (n, l) -> n = "compare" && l < line) file.top_defs
  in
  let check_capture ~loc ~callee arg_expr =
    (* Identifiers reachable from the closure, one level deep through
       same-file top-level bindings. *)
    let direct = idents_of_expr arg_expr in
    let via_top =
      List.concat_map
        (fun r ->
          match List.assoc_opt r file.top_refs with
          | Some refs -> refs
          | None -> [])
        direct
    in
    let refs = direct @ via_top in
    if not (dls_guarded refs) then begin
      let hits =
        List.filter_map
          (fun r ->
            let matches (m, n, _, _) =
              (r = n && m = file.modname) || r = m ^ "." ^ n
            in
            match List.find_opt matches env.globals with
            | Some (_, n, gfile, gline) -> Some (n, gfile, gline)
            | None -> None)
          refs
        |> List.sort_uniq (fun (a, af, al) (b, bf, bl) ->
               match String.compare a b with
               | 0 -> (
                 match String.compare af bf with
                 | 0 -> Int.compare al bl
                 | c -> c)
               | c -> c)
      in
      List.iter
        (fun (n, gfile, gline) ->
          add ~loc Rules.Domain_unsafe_capture
            (Printf.sprintf
               "closure passed to %s captures top-level mutable `%s` \
                (defined at %s:%d); route it through Domain.DLS, a mutex, \
                or pass it explicitly per task"
               callee n gfile gline))
        hits
    end
  in
  let ancestors = ref [] in
  let expr_rules e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
      let p = path_of_lid txt in
      if on Rules.Nondet_source then begin
        if String.starts_with ~prefix:"Random." p
           && not (String.starts_with ~prefix:"Random.State." p)
        then
          add ~loc Rules.Nondet_source
            (Printf.sprintf
               "`%s` draws from the ambient global RNG; derive a stream \
                from Sim.Rng instead" p)
        else if List.mem p [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]
        then
          add ~loc Rules.Nondet_source
            (Printf.sprintf
               "`%s` reads the wall clock; simulation logic must use the \
                sim clock (timing measurements need a suppression with \
                rationale)" p)
        else if List.mem p [ "Hashtbl.hash"; "Hashtbl.seeded_hash" ] then
          add ~loc Rules.Nondet_source
            (Printf.sprintf
               "`%s` is representation-sensitive (floats, cycles); use a \
                typed hash or suppress with a rationale" p)
      end;
      if on Rules.Poly_compare then begin
        match txt with
        | Longident.Lident "compare"
          when not (defines_compare_before (fst (line_col loc))) ->
          add ~loc Rules.Poly_compare
            "polymorphic `compare`; use a typed comparison \
             (Int.compare, Float.compare, a per-type compare, ...)"
        | _ when p = "Stdlib.compare" ->
          add ~loc Rules.Poly_compare
            "`Stdlib.compare` is polymorphic; use a typed comparison"
        | _ -> ()
      end)
    | Pexp_apply (f, args) -> (
      (match path_of_expr f with
      | Some p when on Rules.Iteration_order
                    && (p = "Hashtbl.iter" || p = "Hashtbl.fold") ->
        if not (in_sorted_context !ancestors) then
          add ~loc:e.pexp_loc Rules.Iteration_order
            (Printf.sprintf
               "`%s` enumerates in unspecified order; sort the result \
                before it feeds output or state (or suppress with a \
                rationale if the accumulation is order-insensitive)" p)
      | Some p when on Rules.Domain_unsafe_capture && pool_entry_points p ->
        List.iter
          (fun (_, arg) ->
            let rec closure_like a =
              match a.pexp_desc with
              | Pexp_fun _ | Pexp_function _ -> Some a
              | Pexp_constraint (a, _) -> closure_like a
              | Pexp_ident { txt = Longident.Lident n; _ }
                when List.mem_assoc n file.top_refs ->
                Some a
              | _ -> None
            in
            match closure_like arg with
            | Some a -> check_capture ~loc:a.pexp_loc ~callee:p a
            | None -> ())
          args
      | Some ("=" | "<>") when on Rules.Poly_compare ->
        if List.exists (fun (_, a) -> is_compound a) args then
          add ~loc:e.pexp_loc Rules.Poly_compare
            "polymorphic (=)/(<>) on a structured value; use a typed \
             equality"
      | Some p when on Rules.Float_format && printf_like p ->
        List.iter
          (fun (_, arg) ->
            match arg.pexp_desc with
            | Pexp_constant (Pconst_string (s, _, _)) ->
              (* Anchor at the call, not the literal: multi-line printf
                 applications keep the suppression next to the call. *)
              List.iter
                (fun spec ->
                  add ~loc:e.pexp_loc Rules.Float_format
                    (Printf.sprintf
                       "float printed with `%s`, which does not \
                        round-trip; schema output needs %%.17g or %%h \
                        (human-facing output needs a suppression with \
                        rationale)" spec))
                (bad_float_specs s)
            | _ -> ())
          args
      | _ -> ())
      [@warning "-4"])
    | _ -> ())
    [@warning "-4"]
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          expr_rules e;
          ancestors := e :: !ancestors;
          Ast_iterator.default_iterator.expr it e;
          ancestors := List.tl !ancestors);
    }
  in
  iter.structure iter file.structure;
  let parse = match file.parse_error with Some d -> [ d ] | None -> [] in
  let malformed =
    List.map
      (fun (line, msg) ->
        {
          Diag.file = file.path;
          line;
          col = 0;
          rule = "suppression-syntax";
          severity = Diag.Warning;
          message = "malformed dgmc-analyze comment: " ^ msg;
        })
      file.sup.Suppress.malformed
  in
  parse @ malformed @ List.rev !diags
