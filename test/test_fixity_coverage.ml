open Testutil
module C = Dc_citation
module V = Dc_citation.Versioned_engine
module Cov = Dc_citation.Coverage
module R = Dc_relational
module D = Dc_relational.Delta

let views = Dc_gtopdb.Paper_views.all
let query = Dc_gtopdb.Paper_views.query_q

(* Citing and re-citing go through the versioned engine: a citation is
   its version, stamp digest and answer; resolving it re-cites the same
   query at that version. *)
let cite ve v q =
  match V.cite_at ve v q with Ok c -> c | Error e -> Alcotest.fail e

let same_tuples = List.equal R.Tuple.equal

(* [verify]: the version still hashes to the stamp, and re-citing gives
   back exactly the cited tuples. *)
let verifies ve (c : V.cited) =
  V.verify ve c.version c.digest = Ok true
  && same_tuples
       (cited_tuples (cite ve c.version c.result.query))
       (cited_tuples c)

let test_cite_and_resolve () =
  let ve = V.of_engine @@ C.Engine.create (paper_db ()) views in
  let vc = cite ve (V.head ve) query in
  Alcotest.(check int) "cited at v0" 0 vc.version;
  Alcotest.(check int) "two tuples" 2 (List.length (cited_tuples vc));
  Alcotest.(check int) "resolves to same" 2
    (List.length (cited_tuples (cite ve vc.version query)))

let test_fixity_across_evolution () =
  let ve = V.of_engine @@ C.Engine.create (paper_db ()) views in
  let vc = cite ve (V.head ve) query in
  let delta =
    D.delete D.empty "FamilyIntro" (tuple [ int 21; str "Dopamine intro" ])
  in
  ignore (Result.get_ok (V.commit_delta ve delta));
  (* fresh citation differs, resolved citation doesn't *)
  let fresh = cite ve (V.head ve) query in
  Alcotest.(check int) "fresh sees one tuple" 1
    (List.length (cited_tuples fresh));
  Alcotest.(check bool) "old verifies" true (verifies ve vc);
  Alcotest.(check bool) "fresh verifies too" true (verifies ve fresh)

let test_resolve_unknown_version () =
  let ve = V.of_engine @@ C.Engine.create (paper_db ()) views in
  Alcotest.(check bool) "error" true (Result.is_error (V.cite_at ve 99 query))

let test_query_text_roundtrip () =
  (* the citation carries its query; its text parses back to a query
     that re-cites to the same tuples *)
  let ve = V.of_engine @@ C.Engine.create (paper_db ()) views in
  let vc = cite ve (V.head ve) query in
  match Dc_cq.Parser.parse_query (Dc_cq.Query.to_string vc.result.query) with
  | Error e -> Alcotest.fail e
  | Ok q ->
      Alcotest.(check bool) "re-cites to the same tuples" true
        (same_tuples (cited_tuples (cite ve vc.version q)) (cited_tuples vc))

(* Coverage *)

let vset = C.Citation_view.Set.view_set (C.Citation_view.Set.of_list views)

let test_analyze () =
  let workload =
    [
      parse "W0(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
      parse "W1(FID,FName) :- Family(FID,FName,Desc)";
      parse "W2(PName) :- Committee(FID,PName)";
    ]
  in
  let report = Cov.analyze ~db:(paper_db ()) vset workload in
  Alcotest.(check int) "total" 3 report.total;
  Alcotest.(check int) "covered" 2 report.covered;
  Alcotest.(check int) "ambiguous" 2 report.ambiguous;
  Alcotest.(check bool) "ratio" true
    (abs_float (Cov.coverage_ratio report -. (2. /. 3.)) < 1e-9);
  let w0 = List.hd report.per_query in
  Alcotest.(check (option int)) "min size for W0" (Some 2) w0.min_citation_size

let test_greedy_minimal () =
  (* V1 and V2 are interchangeable for coverage; greedy should drop one. *)
  let workload =
    [
      parse "W0(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
      parse "W1(FID,FName) :- Family(FID,FName,Desc)";
    ]
  in
  let kept = Dc_repro.View_selection.greedy_minimal_views vset workload in
  Alcotest.(check int) "two views suffice" 2 (List.length kept);
  let kept_names = List.map Dc_rewriting.View.name kept in
  Alcotest.(check bool) "V3 kept" true (List.mem "V3" kept_names);
  (* coverage preserved *)
  let report =
    Cov.analyze (Dc_rewriting.View.Set.of_list kept) workload
  in
  Alcotest.(check int) "still both covered" 2 report.covered

let test_empty_workload () =
  let report = Cov.analyze vset [] in
  Alcotest.(check int) "empty" 0 report.total;
  Alcotest.(check bool) "ratio 1" true (Cov.coverage_ratio report = 1.0)

let suite =
  [
    Alcotest.test_case "cite and resolve" `Quick test_cite_and_resolve;
    Alcotest.test_case "fixity across evolution" `Quick test_fixity_across_evolution;
    Alcotest.test_case "unknown version" `Quick test_resolve_unknown_version;
    Alcotest.test_case "query text roundtrip" `Quick test_query_text_roundtrip;
    Alcotest.test_case "coverage analyze" `Quick test_analyze;
    Alcotest.test_case "greedy minimal views" `Quick test_greedy_minimal;
    Alcotest.test_case "empty workload" `Quick test_empty_workload;
  ]
