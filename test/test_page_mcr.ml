open Testutil
module C = Dc_citation
module P = Dc_citation.Page
module Rw = Dc_rewriting

let engine () = C.Engine.create (paper_db ()) Dc_gtopdb.Paper_views.all

let test_render_parameterized_page () =
  match P.render (engine ()) ~view:"V1" ~params:[ ("FID", int 11) ] with
  | Error e -> Alcotest.fail e
  | Ok page ->
      Alcotest.(check int) "one family row" 1 (List.length page.rows);
      Alcotest.(check (list string)) "columns" [ "FID"; "FName"; "Desc" ]
        page.columns;
      Alcotest.(check string) "citation view" "V1"
        (C.Citation.view page.citation);
      (* the page's citation carries the committee members *)
      Alcotest.(check int) "two snippets" 2
        (List.length (C.Citation.snippets page.citation))

let test_render_unparameterized_page () =
  match P.render (engine ()) ~view:"V2" ~params:[] with
  | Error e -> Alcotest.fail e
  | Ok page ->
      Alcotest.(check int) "all families" 4 (List.length page.rows)

let test_render_errors () =
  Alcotest.(check bool) "unknown view" true
    (Result.is_error (P.render (engine ()) ~view:"Nope" ~params:[]));
  Alcotest.(check bool) "missing param" true
    (Result.is_error (P.render (engine ()) ~view:"V1" ~params:[]))

let test_page_ids () =
  let ids = Dc_repro.Portal.page_ids (engine ()) ~view:"V1" in
  Alcotest.(check int) "one page per family" 4 (List.length ids);
  Alcotest.(check (list (list (pair string value_t)))) "unparameterized"
    [ [] ]
    (Dc_repro.Portal.page_ids (engine ()) ~view:"V2");
  Alcotest.(check (list (list (pair string value_t)))) "unknown view" []
    (Dc_repro.Portal.page_ids (engine ()) ~view:"Nope")

let test_to_text () =
  match P.render (engine ()) ~view:"V1" ~params:[ ("FID", int 11) ] with
  | Error e -> Alcotest.fail e
  | Ok page ->
      let text = P.to_text page in
      Alcotest.(check bool) "has citation marker" true
        (String.length text > 0
        && String.split_on_char '\n' text
           |> List.exists (fun l -> l = "-- cite as --"))

(* --- maximally contained rewritings -------------------------------- *)

let q = parse

let test_mcr_when_equivalent_exists () =
  let views =
    Rw.View.Set.of_list
      (List.map C.Citation_view.view Dc_gtopdb.Paper_views.all)
  in
  let disjuncts, _ =
    Rw.Rewrite.maximally_contained views Dc_gtopdb.Paper_views.query_q
  in
  (* the equivalent rewritings subsume each other, leaving one maximal
     disjunct equivalent to Q *)
  Alcotest.(check int) "one maximal disjunct" 1 (List.length disjuncts);
  Alcotest.(check bool) "it is equivalent" true
    (Rw.Expansion.is_equivalent_rewriting views Dc_gtopdb.Paper_views.query_q
       (List.hd disjuncts))

let test_mcr_strictly_contained () =
  (* Views expose Family restricted to two different constants; Q asks
     for everything: no equivalent rewriting, two incomparable maximal
     disjuncts. *)
  let views =
    Rw.View.Set.of_list
      [
        Rw.View.of_query (q "VA(FID,FName) :- Family(FID,FName,\"C1\")");
        Rw.View.of_query (q "VB(FID,FName) :- Family(FID,FName,\"C2\")");
      ]
  in
  let query = q "Q(FID,FName) :- Family(FID,FName,Desc)" in
  let equivalents = (Rw.Rewrite.search views query).Rw.Rewrite.queries in
  Alcotest.(check int) "no equivalent rewriting" 0 (List.length equivalents);
  let disjuncts, _ = Rw.Rewrite.maximally_contained views query in
  Alcotest.(check int) "two maximal disjuncts" 2 (List.length disjuncts);
  (* and the union actually computes the union of the two restrictions *)
  let db = paper_db () in
  let view_db =
    List.fold_left
      (fun acc v ->
        Dc_relational.Database.add_relation acc
          (Dc_cq.Eval.result db (Rw.View.definition v)))
      db
      (Rw.View.Set.to_list views)
  in
  let ucq = Dc_repro.Ucq.make_exn ~name:"U" disjuncts in
  let tuples = Dc_repro.Ucq.result view_db ucq in
  Alcotest.(check int) "calcitonin families recovered" 2 (List.length tuples)

let test_mcr_subsumption () =
  (* a view equal to the query subsumes a restricted one *)
  let views =
    Rw.View.Set.of_list
      [
        Rw.View.of_query (q "VFull(FID,FName) :- Family(FID,FName,Desc)");
        Rw.View.of_query (q "VPart(FID,FName) :- Family(FID,FName,\"C1\")");
      ]
  in
  let query = q "Q(FID,FName) :- Family(FID,FName,Desc)" in
  let disjuncts, _ = Rw.Rewrite.maximally_contained views query in
  Alcotest.(check int) "restricted disjunct pruned" 1 (List.length disjuncts);
  Alcotest.(check (list string)) "full view kept" [ "VFull" ]
    (Dc_cq.Query.predicates (List.hd disjuncts))

let suite =
  [
    Alcotest.test_case "parameterized page" `Quick test_render_parameterized_page;
    Alcotest.test_case "unparameterized page" `Quick test_render_unparameterized_page;
    Alcotest.test_case "page errors" `Quick test_render_errors;
    Alcotest.test_case "page ids" `Quick test_page_ids;
    Alcotest.test_case "page text" `Quick test_to_text;
    Alcotest.test_case "mcr with equivalent" `Quick test_mcr_when_equivalent_exists;
    Alcotest.test_case "mcr strictly contained" `Quick test_mcr_strictly_contained;
    Alcotest.test_case "mcr subsumption" `Quick test_mcr_subsumption;
  ]
