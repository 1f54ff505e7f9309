(* Regression gate over two dgmc-bench/1 documents.

   The schema mixes two kinds of data and the comparison must not
   confuse them:

   - {e exact} figures — cell identities (series × size × seed), metric
     counters, histogram sample counts — are simulation outputs of a
     fixed seed and must match byte-exactly; any difference is a
     determinism or workload regression.
   - {e wall-clock} figures — elapsed_s, per-task histograms' float
     stats — vary run to run.  The gate is the per-section and total
     [seq_estimate_s] (sum of per-task walls, so independent of how many
     domains ran the batch), compared under a relative tolerance above
     an absolute floor; everything else wall-flavored is informational. *)

type severity = Info | Fail

type finding = { severity : severity; area : string; detail : string }

type outcome = { findings : finding list }

let failed o = List.exists (fun f -> f.severity = Fail) o.findings

(* ------------------------------------------------------------------ *)
(* JSON access helpers *)

let str_of m j = Option.bind (Sim.Json.member m j) Sim.Json.to_string

let num_of m j = Option.bind (Sim.Json.member m j) Sim.Json.to_float

let list_of m j = Option.bind (Sim.Json.member m j) Sim.Json.to_list

(* Meta fields are scalars in dgmc-bench/1. *)
let scalar_of m j =
  match Sim.Json.member m j with
  | None -> "absent"
  | Some Null -> "null"
  | Some (Bool b) -> string_of_bool b
  | Some (Num f) -> Sim.Json.number f
  | Some (Str s) -> "\"" ^ Sim.Json.escape s ^ "\""
  | Some (Arr _ | Obj _) -> "(not a scalar)"

(* dgmc-analyze: allow float-format — human-facing diff rendering *)
let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "nan"

let pct f = num (100.0 *. f)

(* ------------------------------------------------------------------ *)
(* Pieces of the comparison *)

(* A wall rise fails only when it also exceeds this many seconds: figure
   sections take tenths of a second, where a 10% rise is host noise. *)
let wall_floor_s = 0.05

let wall_findings ~wall_tol ~area base cand =
  if base <= 0.0 then []
  else
    let ratio = (cand -. base) /. base in
    if ratio > wall_tol then
      [
        {
          severity = (if cand -. base > wall_floor_s then Fail else Info);
          area;
          detail =
            Printf.sprintf
              "seq_estimate_s regressed %s%% (%s s -> %s s, tolerance %s%% \
               above %s s)"
              (pct ratio) (num base) (num cand) (pct wall_tol)
              (num wall_floor_s);
        };
      ]
    else if ratio < -.wall_tol then
      [
        {
          severity = Info;
          area;
          detail =
            Printf.sprintf "seq_estimate_s improved %s%% (%s s -> %s s)"
              (pct (-.ratio)) (num base) (num cand);
        };
      ]
    else []

let cell_key cell =
  ( Option.value ~default:"?" (str_of "series" cell),
    Option.bind (Sim.Json.member "size" cell) Sim.Json.to_int,
    Option.bind (Sim.Json.member "seed" cell) Sim.Json.to_int )

let compare_cell_key (s1, z1, d1) (s2, z2, d2) =
  match String.compare s1 s2 with
  | 0 -> (
    match Option.compare Int.compare z1 z2 with
    | 0 -> Option.compare Int.compare d1 d2
    | c -> c)
  | c -> c

let section_findings ~wall_tol name base cand =
  let area = "section " ^ name in
  let walls =
    match (num_of "seq_estimate_s" base, num_of "seq_estimate_s" cand) with
    | Some b, Some c -> wall_findings ~wall_tol ~area b c
    | _ -> [ { severity = Fail; area; detail = "missing seq_estimate_s" } ]
  in
  let cells j = List.map cell_key (Option.value ~default:[] (list_of "cells" j)) in
  let bc = List.sort compare_cell_key (cells base)
  and cc = List.sort compare_cell_key (cells cand) in
  let cells_f =
    if bc <> cc then
      [
        {
          severity = Fail;
          area;
          detail =
            Printf.sprintf
              "cell set differs: %d vs %d cells (series x size x seed must \
               match exactly)"
              (List.length bc) (List.length cc);
        };
      ]
    else []
  in
  walls @ cells_f

let metric_key j =
  ( Option.value ~default:"?" (str_of "name" j),
    Option.bind (Sim.Json.member "switch" j) Sim.Json.to_int )

let compare_metric_key (n1, s1) (n2, s2) =
  match String.compare n1 n2 with
  | 0 -> Option.compare Int.compare s1 s2
  | c -> c

let label (name, switch) =
  match switch with
  | None -> name
  | Some s -> Printf.sprintf "%s{switch=%d}" name s

(* Counters compare exactly; histograms compare on sample count only
   (sums and quantiles of the pool.task_* histograms are wall-clock). *)
let metrics_findings base cand =
  let index kind j =
    List.map (fun m -> (metric_key m, m)) (Option.value ~default:[] (list_of kind j))
  in
  let compare_keyed kind ~field =
    let bi = index kind base and ci = index kind cand in
    let keys l = List.sort compare_metric_key (List.map fst l) in
    let structural =
      if keys bi <> keys ci then
        [
          {
            severity = Fail;
            area = "metrics." ^ kind;
            detail =
              Printf.sprintf "%s set differs (%d vs %d entries)" kind
                (List.length bi) (List.length ci);
          };
        ]
      else []
    in
    let value_diffs =
      List.filter_map
        (fun (k, bm) ->
          match List.assoc_opt k ci with
          | None -> None
          | Some cm -> (
            match (num_of field bm, num_of field cm) with
            | Some bv, Some cv when not (Float.equal bv cv) ->
              Some
                {
                  severity = Fail;
                  area = "metrics." ^ kind;
                  detail =
                    Printf.sprintf "%s %s: %s %s -> %s" kind (label k) field
                      (num bv) (num cv);
                }
            | _ -> None))
        bi
    in
    structural @ value_diffs
  in
  compare_keyed "counters" ~field:"value"
  @ compare_keyed "histograms" ~field:"count"

(* ------------------------------------------------------------------ *)

let compare_json ~wall_tol baseline candidate =
  let schema j = Option.value ~default:"?" (str_of "schema" j) in
  if schema baseline <> "dgmc-bench/1" || schema candidate <> "dgmc-bench/1" then
    {
      findings =
        [
          {
            severity = Fail;
            area = "schema";
            detail =
              Printf.sprintf "expected dgmc-bench/1 on both sides, got %s vs %s"
                (schema baseline) (schema candidate);
          };
        ];
    }
  else begin
    let findings = ref [] in
    let add fs = findings := !findings @ fs in
    (* Meta drift is worth a note: figures from different seeds or
       quick-flags are not comparable, and the cell check will fail. *)
    List.iter
      (fun key ->
        let b = scalar_of key baseline and c = scalar_of key candidate in
        if not (String.equal b c) then
          add
            [
              {
                severity = Info;
                area = "meta";
                detail = Printf.sprintf "%s differs: %s vs %s" key b c;
              };
            ])
      [ "master_seed"; "quick"; "domains"; "commit" ];
    (match (num_of "seq_estimate_s" baseline, num_of "seq_estimate_s" candidate) with
    | Some b, Some c -> add (wall_findings ~wall_tol ~area:"total" b c)
    | _ -> add [ { severity = Fail; area = "total"; detail = "missing seq_estimate_s" } ]);
    let sections j =
      List.filter_map
        (fun s -> Option.map (fun n -> (n, s)) (str_of "name" s))
        (Option.value ~default:[] (list_of "figures" j))
    in
    let bs = sections baseline and cs = sections candidate in
    List.iter
      (fun (name, b) ->
        match List.assoc_opt name cs with
        | Some c -> add (section_findings ~wall_tol name b c)
        | None ->
          add
            [
              {
                severity = Fail;
                area = "section " ^ name;
                detail = "missing from candidate";
              };
            ])
      bs;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name bs) then
          add
            [
              {
                severity = Info;
                area = "section " ^ name;
                detail = "new in candidate (no baseline to compare)";
              };
            ])
      cs;
    (match (Sim.Json.member "metrics" baseline, Sim.Json.member "metrics" candidate) with
    | Some b, Some c -> add (metrics_findings b c)
    | Some _, None | None, Some _ ->
      add
        [
          {
            severity = Info;
            area = "metrics";
            detail = "present in only one document (not compared)";
          };
        ]
    | None, None -> ());
    { findings = !findings }
  end

let compare_strings ~wall_tol ~baseline ~candidate =
  match (Sim.Json.parse baseline, Sim.Json.parse candidate) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("candidate: " ^ e)
  | Ok b, Ok c -> Ok (compare_json ~wall_tol b c)

(* ------------------------------------------------------------------ *)

let render ~wall_tol ~baseline_name ~candidate_name outcome =
  let b = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  out "# Bench diff\n\n";
  out "- baseline: `%s`\n- candidate: `%s`\n- wall tolerance: %s%% on \
       seq_estimate_s, for rises above %s s\n\n"
    baseline_name candidate_name (pct wall_tol) (num wall_floor_s);
  let fails = List.filter (fun f -> f.severity = Fail) outcome.findings in
  let infos = List.filter (fun f -> f.severity = Info) outcome.findings in
  if fails = [] then out "**PASS** — no regressions.\n\n"
  else out "**FAIL** — %d regression(s).\n\n" (List.length fails);
  if outcome.findings <> [] then begin
    out "| severity | area | detail |\n|---|---|---|\n";
    List.iter
      (fun f ->
        out "| %s | %s | %s |\n"
          (match f.severity with Fail -> "FAIL" | Info -> "info")
          f.area f.detail)
      (fails @ infos)
  end;
  Buffer.contents b
