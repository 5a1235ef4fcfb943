open Testutil
module C = Dc_citation
module CS = Dc_repro.Citation_store
module Cov = Dc_citation.Coverage
module E = Dc_citation.Engine
module Rw = Dc_rewriting

let sample_set () =
  let engine = E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  let result = E.cite engine Dc_gtopdb.Paper_views.query_q in
  result.result_citations

(* --- citation store ------------------------------------------------ *)

let test_put_get () =
  let store = CS.create () in
  let set = sample_set () in
  let key = CS.put store set in
  Alcotest.(check bool) "key shape" true
    (String.length key = 17 && String.sub key 0 5 = "cite:");
  (match CS.get store key with
  | None -> Alcotest.fail "not found"
  | Some set' ->
      Alcotest.(check int) "same set" (C.Citation.Set.size set)
        (C.Citation.Set.size set'));
  Alcotest.(check (option string)) "reference" (Some key)
    (CS.reference store set)

let test_idempotent_content_addressing () =
  let store = CS.create () in
  let k1 = CS.put store (sample_set ()) in
  let k2 = CS.put store (sample_set ()) in
  Alcotest.(check string) "same key" k1 k2;
  Alcotest.(check int) "one entry" 1 (CS.entries store);
  (* a different set gets a different key *)
  let other =
    C.Citation.Set.of_list
      [ C.Citation.make ~view:"Other" ~params:[] ~snippets:[] ]
  in
  Alcotest.(check bool) "distinct key" true (CS.put store other <> k1);
  Alcotest.(check int) "two entries" 2 (CS.entries store)

let test_search () =
  let store = CS.create () in
  let _ = CS.put store (sample_set ()) in
  let hits = CS.search store "pharmacology" in
  Alcotest.(check bool) "case-insensitive hit" true (hits <> []);
  Alcotest.(check bool) "no hits for nonsense" true
    (CS.search store "zzznonsense" = []);
  Alcotest.(check bool) "missing key" true (CS.get store "cite:nope" = None)

(* --- view suggestion ------------------------------------------------ *)

let vset =
  C.Citation_view.Set.view_set
    (C.Citation_view.Set.of_list Dc_gtopdb.Paper_views.all)

let test_suggest_covers () =
  let workload =
    [
      parse "W0(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
      parse "W1(PName) :- Committee(FID,PName)";
      parse "W2(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)";
    ]
  in
  let suggestions = Dc_repro.View_selection.suggest_views vset workload in
  Alcotest.(check int) "two uncovered -> two suggestions" 2
    (List.length suggestions);
  (* adding the suggestions achieves full coverage *)
  let augmented =
    List.fold_left
      (fun vs q -> Rw.View.Set.add_exn vs (Rw.View.of_query q))
      vset suggestions
  in
  let report = Cov.analyze augmented workload in
  Alcotest.(check int) "fully covered" 3 report.covered

let test_suggest_dedups_equivalent_queries () =
  let workload =
    [
      parse "W1(PName) :- Committee(FID,PName)";
      parse "W1b(P) :- Committee(F,P)";
      (* same query, renamed *)
    ]
  in
  let suggestions = Dc_repro.View_selection.suggest_views vset workload in
  Alcotest.(check int) "one suggestion" 1 (List.length suggestions)

let test_suggest_none_needed () =
  let workload = [ parse "W0(FID,FName) :- Family(FID,FName,Desc)" ] in
  Alcotest.(check int) "already covered" 0
    (List.length (Dc_repro.View_selection.suggest_views vset workload))

(* --- contained fallback --------------------------------------------- *)

let test_fallback_contained () =
  let parse_q = parse in
  (* views only expose the two constant-restricted slices *)
  let va =
    C.Citation_view.make_exn
      ~view:(parse_q "VA(FID,FName) :- Family(FID,FName,\"C1\")")
      ~citations:[ parse_q "CVA(D) :- D=\"slice C1\"" ]
      ()
  in
  let vb =
    C.Citation_view.make_exn
      ~view:(parse_q "VB(FID,FName) :- Family(FID,FName,\"C2\")")
      ~citations:[ parse_q "CVB(D) :- D=\"slice C2\"" ]
      ()
  in
  let query = parse_q "Q(FID,FName) :- Family(FID,FName,Desc)" in
  (* without fallback: full answer, no citations *)
  let plain = E.create (paper_db ()) [ va; vb ] in
  let r0 = E.cite plain query in
  Alcotest.(check bool) "complete" true r0.complete;
  Alcotest.(check int) "full answer" 4 (List.length r0.tuples);
  Alcotest.(check int) "uncited" 0 (C.Citation.Set.size r0.result_citations);
  (* with fallback: partial answer, but cited *)
  let fb = E.create ~fallback_contained:true (paper_db ()) [ va; vb ] in
  let r1 = E.cite fb query in
  Alcotest.(check bool) "incomplete flagged" false r1.complete;
  Alcotest.(check int) "only the two slices" 2 (List.length r1.tuples);
  Alcotest.(check bool) "cited" true (C.Citation.Set.size r1.result_citations > 0)

let test_fallback_unused_when_equivalent () =
  let fb =
    E.create ~fallback_contained:true (paper_db ()) Dc_gtopdb.Paper_views.all
  in
  let r = E.cite fb Dc_gtopdb.Paper_views.query_q in
  Alcotest.(check bool) "complete" true r.complete;
  Alcotest.(check int) "normal path" 2 (List.length r.rewritings)

let suite =
  [
    Alcotest.test_case "store put/get" `Quick test_put_get;
    Alcotest.test_case "content addressing" `Quick test_idempotent_content_addressing;
    Alcotest.test_case "store search" `Quick test_search;
    Alcotest.test_case "suggest covers" `Quick test_suggest_covers;
    Alcotest.test_case "suggest dedups" `Quick test_suggest_dedups_equivalent_queries;
    Alcotest.test_case "suggest none needed" `Quick test_suggest_none_needed;
    Alcotest.test_case "contained fallback" `Quick test_fallback_contained;
    Alcotest.test_case "fallback unused when equivalent" `Quick test_fallback_unused_when_equivalent;
  ]

(* --- bibliography --------------------------------------------------- *)

let test_bibliography () =
  let bib = C.Bibliography.create () in
  let engine = E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  let r1 = E.cite engine Dc_gtopdb.Paper_views.query_q in
  let k1 = C.Bibliography.add_result bib r1 in
  (* a different query with the same citation set shares the entry *)
  let r2 =
    E.cite engine (parse "Q2(FID,Text) :- FamilyIntro(FID,Text), Family(FID,N,D)")
  in
  let k2 = C.Bibliography.add_result bib r2 in
  Alcotest.(check bool) "keys differ or collapse consistently"
    (C.Citation.Set.size r1.result_citations
     = C.Citation.Set.size r2.result_citations
     && r1.result_citations = r2.result_citations)
    (k1 = k2);
  Alcotest.(check bool) "entry listed" true
    (List.exists
       (fun (e : C.Bibliography.entry) -> e.key = k1)
       (C.Bibliography.entries bib));
  let text = C.Bibliography.render bib in
  Alcotest.(check bool) "mentions key" true
    (String.length text > 0
    &&
    let nl = String.length k1 and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = k1 || go (i + 1)) in
    go 0)

let test_bibliography_dedup () =
  let bib = C.Bibliography.create () in
  let engine = E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  let r = E.cite engine Dc_gtopdb.Paper_views.query_q in
  let k1 = C.Bibliography.add_result bib r in
  let k2 = C.Bibliography.add_result bib r in
  Alcotest.(check string) "same key" k1 k2;
  Alcotest.(check int) "one entry" 1 (List.length (C.Bibliography.entries bib))

let suite =
  suite
  @ [
      Alcotest.test_case "bibliography" `Quick test_bibliography;
      Alcotest.test_case "bibliography dedup" `Quick test_bibliography_dedup;
    ]
