open Testutil
module C = Dc_citation
module Repl = Dc_repl.Repl
module Defaults = Dc_citation.Defaults

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- defaults ------------------------------------------------------- *)

let relation_views ~blurb schema =
  Defaults.views_for_database ~blurb
    (Dc_relational.Database.create_relation Dc_relational.Database.empty schema)

let test_defaults_shapes () =
  let views = relation_views ~blurb:"db v1" Dc_gtopdb.Schema_def.family in
  Alcotest.(check (list string)) "all + one" [ "AllFamily"; "OneFamily" ]
    (List.map C.Citation_view.name views);
  let one = List.nth views 1 in
  Alcotest.(check (list string)) "parameterized by the key" [ "FID" ]
    (C.Citation_view.params one);
  (* keyless relations only get the whole-relation view *)
  let keyless =
    Dc_relational.Schema.make "Keyless" [ Dc_relational.Schema.attr "A" ]
  in
  Alcotest.(check int) "keyless -> one view" 1
    (List.length (relation_views ~blurb:"x" keyless))

let test_defaults_cover_single_relation_queries () =
  let db = paper_db () in
  let workload =
    [
      parse "W0(FID,FName) :- Family(FID,FName,Desc)";
      parse "W1(PName) :- Committee(FID,PName)";
      parse "W2(Text) :- FamilyIntro(FID,Text)";
      parse "W3(TID,TName) :- Target(TID,TName,TType)";
    ]
  in
  let views = Defaults.views_for_database ~blurb:"GtoPdb" db in
  let report =
    C.Coverage.analyze ~db
      (C.Citation_view.Set.view_set (C.Citation_view.Set.of_list views))
      workload
  in
  Alcotest.(check int) "all covered" 4 report.covered

let test_defaults_cite_end_to_end () =
  let db = paper_db () in
  let engine =
    C.Engine.create db (Defaults.views_for_database ~blurb:"GtoPdb" db)
  in
  let result =
    C.Engine.cite engine (parse "Q(FID,FName) :- Family(FID,FName,Desc)")
  in
  Alcotest.(check bool) "covered" true (result.rewritings <> []);
  Alcotest.(check bool) "cited" true
    (C.Citation.Set.size result.result_citations > 0)

let test_per_entity_citation_pulls_own_row () =
  let db = paper_db () in
  let views = relation_views ~blurb:"x" Dc_gtopdb.Schema_def.family in
  let one = List.nth views 1 in
  let c = C.Citation_view.cite one db [ ("FID", int 11) ] in
  let snippet_values =
    List.concat_map
      (fun s -> List.map snd (C.Snippet.fields s))
      (C.Citation.snippets c)
  in
  Alcotest.(check bool) "row content cited" true
    (List.mem (str "Calcitonin") snippet_values)

(* --- repl ----------------------------------------------------------- *)

(* tests run inside dune's sandbox, so materialize a data directory of
   the paper instance on the fly *)
let with_data f =
  let dir = Filename.temp_file "datacite" "" in
  Sys.remove dir;
  C.Spec.save_database (paper_db ()) ~dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let run script = snd (Repl.eval_script Repl.initial script)

let run_with_data script =
  with_data (fun dir ->
      snd
        (Repl.eval_script Repl.initial
           (List.map
              (fun line ->
                if line = "load data DATA" then "load data " ^ dir else line)
              script)))

let test_repl_help_unknown () =
  let replies = run [ "help"; "wibble"; ""; "# comment" ] in
  Alcotest.(check int) "two replies" 2 (List.length replies);
  Alcotest.(check bool) "help text" true
    (contains (List.nth replies 0) "commands:");
  Alcotest.(check bool) "unknown command" true
    (contains (List.nth replies 1) "unknown command")

let test_repl_requires_db () =
  let replies = run [ "q Q(X) :- R(X,Y)" ] in
  Alcotest.(check bool) "asks for db" true
    (contains (List.hd replies) "no database loaded")

let test_repl_inline_view_definition () =
  let replies =
    run_with_data
      [
        "load data DATA";
        "view VX(FID,Text) :- FamilyIntro(FID,Text)";
        "cite CVX(D) :- D=\"inline blurb\"";
        "done";
        "q Q(Text) :- FamilyIntro(FID,Text)";
      ]
  in
  let final = List.nth replies (List.length replies - 1) in
  Alcotest.(check bool) "query cited via inline view" true
    (contains final "inline blurb")

let test_repl_policy_roundtrip () =
  let replies = run [ "policy"; "policy alt_r=keep-all joint=join"; "policy" ] in
  Alcotest.(check bool) "default shown" true
    (contains (List.nth replies 0) "min-size");
  Alcotest.(check bool) "updated" true
    (contains (List.nth replies 2) "keep-all");
  Alcotest.(check bool) "join set" true
    (contains (List.nth replies 2) "·=join");
  let err = run [ "policy alt_r=bogus" ] in
  Alcotest.(check bool) "bad policy" true (contains (List.hd err) "unknown")

let test_repl_defaults_and_sql () =
  let replies =
    run_with_data
      [
        "load data DATA";
        "defaults GtoPdb 2026.1";
        "sql SELECT f.FName FROM Family f";
      ]
  in
  Alcotest.(check bool) "defaults installed" true
    (contains (List.nth replies 1) "AllFamily");
  let final = List.nth replies 2 in
  Alcotest.(check bool) "sql cited" true (contains final "GtoPdb 2026.1")

let test_repl_cite_before_view () =
  let replies = run [ "cite CV(D) :- D=\"x\"" ] in
  Alcotest.(check bool) "rejected" true
    (contains (List.hd replies) "no pending view")

let test_repl_bibliography () =
  let replies =
    run_with_data
      [
        "load data DATA";
        "view V2(FID,FName,Desc) :- Family(FID,FName,Desc)";
        "cite CV2(D) :- D=\"blurb\"";
        "done";
        "q Q(FID,FName) :- Family(FID,FName,Desc)";
        "bib";
      ]
  in
  let bib = List.nth replies (List.length replies - 1) in
  Alcotest.(check bool) "entry present" true (contains bib "cite:")

let suite =
  [
    Alcotest.test_case "defaults shapes" `Quick test_defaults_shapes;
    Alcotest.test_case "defaults cover single-relation" `Quick test_defaults_cover_single_relation_queries;
    Alcotest.test_case "defaults cite end-to-end" `Quick test_defaults_cite_end_to_end;
    Alcotest.test_case "per-entity citation" `Quick test_per_entity_citation_pulls_own_row;
    Alcotest.test_case "repl help/unknown" `Quick test_repl_help_unknown;
    Alcotest.test_case "repl requires db" `Quick test_repl_requires_db;
    Alcotest.test_case "repl inline views" `Quick test_repl_inline_view_definition;
    Alcotest.test_case "repl policy" `Quick test_repl_policy_roundtrip;
    Alcotest.test_case "repl defaults+sql" `Quick test_repl_defaults_and_sql;
    Alcotest.test_case "repl cite before view" `Quick test_repl_cite_before_view;
    Alcotest.test_case "repl bibliography" `Quick test_repl_bibliography;
  ]

(* --- explain -------------------------------------------------------- *)

let test_explain () =
  let engine =
    C.Engine.create ~selection:`All
      ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
      (paper_db ()) Dc_gtopdb.Paper_views.all
  in
  let result = C.Engine.cite engine Dc_gtopdb.Paper_views.query_q in
  let calcitonin = tuple [ str "Calcitonin" ] in
  let text = C.Explain.render engine result calcitonin in
  let lines = String.split_on_char '\n' text in
  let count prefix =
    List.length (List.filter (String.starts_with ~prefix) lines)
  in
  (* two rewritings; Q1 has two bindings, Q2 has two bindings *)
  Alcotest.(check int) "four derivations" 4 (count "  via ");
  Alcotest.(check int) "every derivation cites leaves" 4 (count "    cites ");
  Alcotest.(check bool) "mentions CV1(11)" true (contains text "CV1(11)");
  Alcotest.(check bool) "mentions formal" true (contains text "formal citation");
  Alcotest.(check bool) "absent tuple" true
    (contains
       (C.Explain.render engine result (tuple [ str "Nonexistent" ]))
       "not in the answer")

let suite =
  suite @ [ Alcotest.test_case "explain" `Quick test_explain ]

let test_repl_why () =
  let replies =
    run_with_data
      [
        "load data DATA";
        "view V2(FID,FName,Desc) :- Family(FID,FName,Desc)";
        "cite CV2(D) :- D=\"blurb\"";
        "done";
        "q Q(FID,FName) :- Family(FID,FName,Desc)";
        "why 11 Calcitonin";
        "why 999 Nothing";
      ]
  in
  let n = List.length replies in
  Alcotest.(check bool) "explains real tuple" true
    (contains (List.nth replies (n - 2)) "via Q_rw");
  Alcotest.(check bool) "absent tuple" true
    (contains (List.nth replies (n - 1)) "not in the answer");
  let no_query = run [ "why 1" ] in
  Alcotest.(check bool) "no query yet" true
    (contains (List.hd no_query) "no query cited yet")

let suite = suite @ [ Alcotest.test_case "repl why" `Quick test_repl_why ]
