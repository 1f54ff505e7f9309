(* The unused-export rule.  Matching is syntactic and errs towards
   "used" (see the interface): a reference is the pair (last module of
   the path, value name). *)

open Parsetree
module Names = Set.Make (String)

module Pairs = Set.Make (struct
  type t = string * string

  let compare (m1, x1) (m2, x2) =
    match String.compare m1 m2 with 0 -> String.compare x1 x2 | c -> c
end)

type interface = {
  path : string;
  sup : Suppress.scan;
  vals : (string * string * int * int) list;
  parse_error : Diag.t option;
}

(* The module a path ends in; an [F(X)] application names none. *)
let last : Longident.t -> string = function
  | Lident m | Ldot (_, m) -> m
  | Lapply _ -> ""

let rec sig_vals modname items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value { pval_name = { txt; loc }; _ } ->
        let p = loc.loc_start in
        [ (modname, txt, p.pos_lnum, p.pos_cnum - p.pos_bol) ]
      | Psig_module
          { pmd_name = { txt = Some name; _ };
            pmd_type = { pmty_desc = Pmty_signature items; _ };
            _ } ->
        sig_vals name items
      | _ -> [])
    items
  [@@warning "-4"]

let load_interface path =
  let source, parsed = Scan.read Parse.interface path in
  let vals, parse_error =
    match parsed with
    | Ok items -> (sig_vals (Scan.modname_of_path path) items, None)
    | Error d -> ([], Some d)
  in
  { path; sup = Suppress.scan source; vals; parse_error }

(* What one implementation names: qualified values, modules named as a
   whole (functor arguments, first-class modules, [include]), opened
   modules and unqualified values.  Aliases resolve at the end. *)
type refs = { qualified : Pairs.t; whole : Names.t; opened : Names.t; bare : Names.t }

let refs_of structure =
  let qualified = ref Pairs.empty and whole = ref Names.empty in
  let opened = ref Names.empty and bare = ref Names.empty in
  let aliases = ref [] in
  let target (me : module_expr) =
    match me.pmod_desc with Pmod_ident { txt; _ } -> Some (last txt) | _ -> None
  in
  let open_ (me : module_expr) =
    Option.iter (fun m -> opened := Names.add m !opened) (target me);
    Option.is_some (target me)
  in
  let alias name me =
    match (name, target me) with
    | Some name, Some m -> aliases := (name, m) :: !aliases; true
    | _ -> false
  in
  let super = Ast_iterator.default_iterator in
  let iter =
    {
      super with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ident { txt = Lident x; _ } -> bare := Names.add x !bare
          | Pexp_ident { txt = Ldot (m, x); _ } ->
            qualified := Pairs.add (last m, x) !qualified
          | Pexp_open (od, body) when open_ od.popen_expr -> it.expr it body
          | Pexp_letmodule ({ txt; _ }, me, body) when alias txt me ->
            it.expr it body
          | _ -> super.expr it e);
      structure_item =
        (fun it item ->
          match item.pstr_desc with
          | Pstr_open od when open_ od.popen_expr -> ()
          | Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ }
            when alias txt pmb_expr ->
            ()
          | _ -> super.structure_item it item);
      module_expr =
        (fun it me ->
          match target me with
          | Some m -> whole := Names.add m !whole
          | None -> super.module_expr it me);
    }
    [@warning "-4"]
  in
  iter.structure iter structure;
  (* A name counts for itself and every module its alias chains reach
     ([module U = T] after [module T = Timestamp]; a local [T] bound to
     two modules counts for both); [seen] stops a cycle. *)
  let rec reach seen m =
    if Names.mem m seen then seen
    else
      List.fold_left
        (fun seen (a, t) -> if String.equal a m then reach seen t else seen)
        (Names.add m seen) !aliases
  in
  let expand ms = Names.fold (fun m -> Names.union (reach Names.empty m)) ms Names.empty in
  let pair (m, x) = Names.fold (fun r -> Pairs.add (r, x)) (reach Names.empty m) in
  let qualified = Pairs.fold pair !qualified Pairs.empty in
  { qualified; whole = expand !whole; opened = expand !opened; bare = !bare }

let names r (m, x) =
  Pairs.mem (m, x) r.qualified
  || Names.mem m r.whole
  || (Names.mem m r.opened && Names.mem x r.bare)

type callers = (string * refs) list

let callers files = List.map (fun (f : Scan.file) -> (f.path, refs_of f.structure)) files

let check callers intf =
  let own = Filename.remove_extension intf.path ^ ".ml" in
  let unused (m, x, line, col) =
    let caller (path, r) = (not (String.equal path own)) && names r (m, x) in
    if List.exists caller callers then None
    else
      Some
        {
          Diag.file = intf.path;
          line;
          col;
          rule = Rules.name Rules.Unused_export;
          severity = Diag.Error;
          message =
            Printf.sprintf
              "`%s.%s` is exported but no other scanned file names it; \
               remove it from the interface (and the definition, if its \
               own module does not use it)"
              m x;
        }
  in
  Option.to_list intf.parse_error @ List.filter_map unused intf.vals
