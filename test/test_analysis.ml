(* lib/analysis end-to-end: the rule engine on the fixture corpus, the
   suppression machinery, and the JSON renderings.

   The corpus in analysis_fixtures/ is parsed by the analyzer but never
   compiled (data_only_dirs): each file exercises one rule with positive,
   suppressed, and clean sites, so the expected findings below are exact
   line lists, not counts. *)

module Diag = Analysis.Diag
module Scan = Analysis.Scan
module Rules = Analysis.Rules
module Suppress = Analysis.Suppress
module Driver = Analysis.Driver

(* dune runs tests from the stanza's directory, but be tolerant of a
   project-root cwd (`dune exec test/test_analysis.exe`). *)
let fixtures_dir =
  if Sys.file_exists "analysis_fixtures" then "analysis_fixtures"
  else Filename.concat "test" "analysis_fixtures"

let fixture name = Filename.concat fixtures_dir name

(* Raw findings (before suppression) for one fixture. *)
let raw_diags name =
  let file = Scan.load (fixture name) in
  let env = Scan.env_of [ file ] in
  Scan.check env ~enabled:(fun _ -> true) file

let lines_of rule diags =
  List.filter_map
    (fun (d : Diag.t) -> if String.equal d.rule rule then Some d.line else None)
    diags

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.equal (String.sub s i m) sub || at (i + 1)) in
  m = 0 || at 0

(* ------------------------------------------------------------------ *)
(* One test per rule: the fixture's positive sites (including the
   suppressed one — suppression is applied by the driver, not the
   scanner) and nothing else. *)

let check_rule name rule expected_lines () =
  let diags = raw_diags name in
  List.iter
    (fun (d : Diag.t) -> Alcotest.(check string) (name ^ " rule") rule d.rule)
    diags;
  Alcotest.(check (list int)) (name ^ " lines") expected_lines (lines_of rule diags)

let test_clean_fixture () =
  Alcotest.(check int) "fixture_clean.ml has no findings" 0
    (List.length (raw_diags "fixture_clean.ml"))

let test_parse_error () =
  let path = Filename.temp_file "dgmc_analyze_fixture" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "let = 3\n";
      close_out oc;
      let file = Scan.load path in
      match file.Scan.parse_error with
      | None -> Alcotest.fail "expected a parse error"
      | Some d ->
        Alcotest.(check string) "pseudo-rule" (Rules.name Rules.Parse_error)
          d.Diag.rule)

let test_rules_registry () =
  List.iter
    (fun r ->
      match Rules.of_name (Rules.name r) with
      | Some r' ->
        Alcotest.(check string) "of_name round-trip" (Rules.name r)
          (Rules.name r')
      | None -> Alcotest.failf "of_name failed for %s" (Rules.name r))
    Rules.all;
  Alcotest.(check (option pass)) "unknown rule rejected" None
    (Rules.of_name "no-such-rule")

(* ------------------------------------------------------------------ *)
(* Suppression scanner semantics: span + one following line, per rule,
   used/unused accounting. *)

let test_suppress_scan () =
  let src =
    "let x = 1\n\
     (* dgmc-analyze: allow nondet-source, poly-compare -- unit test *)\n\
     let y = 2\n\
     let z = 3\n"
  in
  let sc = Suppress.scan src in
  (match sc.Suppress.suppressions with
  | [ s ] ->
    Alcotest.(check (list string))
      "rules" [ "nondet-source"; "poly-compare" ]
      (List.sort String.compare s.Suppress.rules)
  | l -> Alcotest.failf "expected 1 suppression, got %d" (List.length l));
  Alcotest.(check int) "unused before any match" 1
    (List.length (Suppress.unused sc));
  Alcotest.(check bool) "covers its own line" true
    (Suppress.covers sc ~rule:"poly-compare" ~line:2);
  Alcotest.(check bool) "covers the next line" true
    (Suppress.covers sc ~rule:"nondet-source" ~line:3);
  Alcotest.(check bool) "does not reach two lines down" false
    (Suppress.covers sc ~rule:"nondet-source" ~line:4);
  Alcotest.(check bool) "other rules not covered" false
    (Suppress.covers sc ~rule:"float-format" ~line:3);
  Alcotest.(check int) "used after a match" 0 (List.length (Suppress.unused sc))

let test_suppress_malformed () =
  let sc = Suppress.scan "(* dgmc-analyze: allow nondet-source *)\nlet x = 1\n" in
  Alcotest.(check int) "no rationale means no suppression" 0
    (List.length sc.Suppress.suppressions);
  Alcotest.(check int) "but one malformed report" 1
    (List.length sc.Suppress.malformed)

(* ------------------------------------------------------------------ *)
(* Driver over the whole corpus: suppression counts and unused
   reporting. *)

(* Raw sites across the corpus: 5 nondet + 2 iteration + 4 poly +
   2 float + 3 capture = 16, of which one per rule fixture (5) carries a
   suppression; fixture_suppress.ml adds one suppression-syntax warning
   and one deliberately unused suppression. *)
let corpus_findings = 12
let corpus_suppressed = 5
let corpus_files = 7

let run_corpus () = Driver.run ~enabled:(fun _ -> true) [ fixtures_dir ]

let test_driver_corpus () =
  let r = run_corpus () in
  Alcotest.(check int) "files scanned" corpus_files r.Driver.files_scanned;
  Alcotest.(check int) "suppressed" corpus_suppressed r.Driver.suppressed;
  Alcotest.(check int) "findings" corpus_findings (List.length r.Driver.diags);
  match r.Driver.unused_suppressions with
  | [ (file, s) ] ->
    Alcotest.(check string) "unused in" (fixture "fixture_suppress.ml") file;
    Alcotest.(check (list string)) "unused rules" [ "poly-compare" ]
      s.Suppress.rules
  | l -> Alcotest.failf "expected 1 unused suppression, got %d" (List.length l)

let test_gather_skips_fixtures () =
  (* The corpus must never leak into a normal repo-wide run. *)
  let r = Driver.run ~enabled:(fun _ -> true) [ "." ] in
  Alcotest.(check bool) "found some sources" true (r.Driver.files_scanned > 0);
  List.iter
    (fun (d : Diag.t) ->
      if contains_sub d.file fixtures_dir then
        Alcotest.failf "a run over the tests leaked fixture %s" d.file)
    r.Driver.diags

(* unused-export is the one cross-file rule, so it gets its own two-file
   corpus, written to a scratch directory: an interface with one export
   per way of naming it, and a caller. *)
let test_unused_export () =
  let dir = Filename.temp_dir "dgmc_analyze_exports" "" in
  let write name text =
    let oc = open_out (Filename.concat dir name) in
    output_string oc text;
    close_out oc
  in
  write "widget.mli"
    "val used : int\nval opened : int\nval aliased : int\nval unused : int\n\
     val chained : int\nval shadowed : int\n";
  (* The interface's own implementation naming [unused] does not count. *)
  write "widget.ml"
    "let used = 1\nlet opened = 2\nlet aliased = 3\nlet unused = 4\n\
     let chained = 5\nlet shadowed = 6\nlet _ = unused\n";
  (* [U] reaches [Widget] through [W]; the local [T] names [Widget] in
     one place and [String] in a later one. *)
  write "caller.ml"
    "let a = Widget.used\nlet b = Widget.(opened)\nmodule W = Widget\n\
     let c = W.aliased\nmodule U = W\nlet d = U.chained\n\
     let e = let module T = Widget in T.shadowed\n\
     let f = let module T = String in T.length\n";
  let enabled r = match r with Rules.Unused_export -> true | _ -> false in
  let r = Driver.run ~enabled [ dir ] in
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) (Array.to_list (Sys.readdir dir));
  Sys.rmdir dir;
  match r.Driver.diags with
  | [ (d : Diag.t) ] ->
    Alcotest.(check string) "rule" "unused-export" d.rule;
    Alcotest.(check string) "file" (Filename.concat dir "widget.mli") d.file;
    Alcotest.(check int) "line of the unused val" 4 d.line;
    Alcotest.(check bool) "names the export" true
      (contains_sub d.message "`Widget.unused`")
  | l -> Alcotest.failf "expected 1 unused-export finding, got %d" (List.length l)

let test_rule_toggle () =
  let enabled r = match r with Rules.Nondet_source -> true | _ -> false in
  let r = Driver.run ~enabled [ fixtures_dir ] in
  List.iter
    (fun (d : Diag.t) ->
      if
        not
          (String.equal d.rule (Rules.name Rules.Nondet_source)
          || String.equal d.rule "suppression-syntax")
      then Alcotest.failf "disabled rule still fired: %s" d.rule)
    r.Driver.diags;
  (* The corpus's suppressions of the other rules, the unused
     poly-compare one included, cannot match here: none is reported. *)
  Alcotest.(check int) "no unused suppression of a disabled rule" 0
    (List.length r.Driver.unused_suppressions)

(* Each record of the report is the finding's {!Diag.json}, the record
   dgmc_lint --json prints, one to a line in finding order. *)
let test_json_report () =
  let r = run_corpus () in
  let report = Driver.render_json r in
  (match Sim.Json.parse report with
  | Error e -> Alcotest.failf "report does not parse: %s" e
  | Ok j ->
    let str k = Option.bind (Sim.Json.member k j) Sim.Json.to_string in
    let num k = Option.bind (Sim.Json.member k j) Sim.Json.to_int in
    Alcotest.(check (option string)) "schema" (Some "dgmc-analyze/1")
      (str "schema");
    Alcotest.(check (option string)) "kind" (Some "report") (str "kind");
    Alcotest.(check (option int)) "suppressed" (Some corpus_suppressed)
      (num "suppressed");
    Alcotest.(check (option int)) "one record per finding"
      (Some corpus_findings)
      (Option.map List.length
         (Option.bind (Sim.Json.member "findings" j) Sim.Json.to_list)));
  let records =
    List.filter_map
      (fun line ->
        if String.starts_with ~prefix:"    {" line then
          Some
            (String.trim
               (if String.ends_with ~suffix:"," line then
                  String.sub line 0 (String.length line - 1)
                else line))
        else None)
      (String.split_on_char '\n' report)
  in
  Alcotest.(check (list string)) "records are Diag.json"
    (List.map Diag.json r.Driver.diags)
    records

(* ------------------------------------------------------------------ *)
(* Self-check: the real tree is analyzer-clean.  Runs from the repo root
   when it is reachable from the test's cwd (dune executes tests under
   _build); skipped otherwise. *)

let find_repo_root () =
  let rec up dir =
    let has f = Sys.file_exists (Filename.concat dir f) in
    if (not (contains_sub dir "_build")) && has "dune-project" && has "lib"
    then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent
  in
  up (Sys.getcwd ())

let test_tree_clean () =
  match find_repo_root () with
  | None -> () (* source tree not reachable — nothing to check *)
  | Some root ->
    let cwd = Sys.getcwd () in
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () ->
        Sys.chdir root;
        (* CI's path set: the unused-export rule counts every caller,
           tests included, so a narrower scan would report the
           test-only accessors as unused. *)
        let r =
          Driver.run ~enabled:(fun _ -> true) [ "lib"; "bin"; "bench"; "test" ]
        in
        Alcotest.(check (list string)) "the tree is analyzer-clean" []
          (List.map Diag.render r.Driver.diags))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dgmc-analysis"
    [
      ( "rules",
        [
          Alcotest.test_case "nondet-source sites" `Quick
            (check_rule "fixture_nondet.ml" "nondet-source" [ 4; 6; 8; 10; 13 ]);
          Alcotest.test_case "iteration-order sites" `Quick
            (check_rule "fixture_iteration.ml" "iteration-order" [ 6; 15 ]);
          Alcotest.test_case "poly-compare sites" `Quick
            (check_rule "fixture_poly.ml" "poly-compare" [ 6; 8; 10; 13 ]);
          Alcotest.test_case "float-format sites" `Quick
            (check_rule "fixture_floatfmt.ml" "float-format" [ 4; 13 ]);
          Alcotest.test_case "domain-unsafe-capture sites" `Quick
            (check_rule "fixture_capture.ml" "domain-unsafe-capture" [ 6; 10; 22 ]);
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "parse-error pseudo-rule" `Quick test_parse_error;
          Alcotest.test_case "registry name round-trip" `Quick
            test_rules_registry;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "scan, covers, unused" `Quick test_suppress_scan;
          Alcotest.test_case "malformed comment" `Quick test_suppress_malformed;
        ] );
      ( "driver",
        [
          Alcotest.test_case "corpus accounting" `Quick test_driver_corpus;
          Alcotest.test_case "gather skips the corpus" `Quick
            test_gather_skips_fixtures;
          Alcotest.test_case "unused-export across files" `Quick
            test_unused_export;
          Alcotest.test_case "rule toggling" `Quick test_rule_toggle;
          Alcotest.test_case "json report shape" `Quick test_json_report;
          Alcotest.test_case "tree is analyzer-clean" `Quick test_tree_clean;
        ] );
    ]
