open Testutil
module C = Dc_citation
module Cit = Dc_citation.Citation
module Snip = Dc_citation.Snippet
module CV = Dc_citation.Citation_view

let q = parse

let test_snippet () =
  let s = Snip.make ~source:"CV1" [ ("FID", int 11); ("PName", str "Hay") ] in
  Alcotest.(check string) "source" "CV1" (Snip.source s);
  Alcotest.(check (option value_t)) "field" (Some (int 11)) (field s "FID");
  Alcotest.(check (option value_t)) "missing" None (field s "X");
  let s2 = Snip.of_tuple ~source:"CV1" [ "A"; "B" ] (tuple [ int 1; str "x" ]) in
  Alcotest.(check (option value_t)) "of_tuple" (Some (str "x")) (field s2 "B")

let test_citation_dedups_snippets () =
  let s = Snip.make ~source:"s" [ ("a", int 1) ] in
  let c = Cit.make ~view:"V" ~params:[] ~snippets:[ s; s ] in
  Alcotest.(check int) "one snippet" 1 (List.length (Cit.snippets c))

let test_citation_key_and_merge () =
  let c1 = Cit.make ~view:"V1" ~params:[ ("FID", int 11) ] ~snippets:[] in
  let c2 = Cit.make ~view:"V3" ~params:[] ~snippets:[] in
  Alcotest.(check string) "key" "V1(FID=11)" (Cit.key c1);
  let m = List.hd (Cit.Set.join [ c1 ] [ c2 ]) in
  Alcotest.(check string) "merged view" "V1·V3" (Cit.view m);
  Alcotest.(check int) "merged params" 1 (List.length (Cit.params m))

let test_citation_set_ops () =
  let c1 = Cit.make ~view:"A" ~params:[] ~snippets:[] in
  let c2 = Cit.make ~view:"B" ~params:[] ~snippets:[] in
  let u = Cit.Set.union (Cit.Set.of_list [ c1 ]) (Cit.Set.of_list [ c2; c1 ]) in
  Alcotest.(check int) "union dedups" 2 (Cit.Set.size u);
  let j = Cit.Set.join [ c1 ] [ c2 ] in
  Alcotest.(check int) "join pairs" 1 (Cit.Set.size j);
  Alcotest.(check string) "joined name" "A·B" (Cit.view (List.hd j));
  Alcotest.(check int) "join with empty keeps" 1
    (Cit.Set.size (Cit.Set.join [ c1 ] []))

let test_citation_view_validation () =
  Alcotest.(check bool) "no citation query rejected" true
    (Result.is_error
       (CV.make ~view:(q "V(X) :- R(X,Y)") ~citations:[] ()));
  Alcotest.(check bool) "bad params rejected" true
    (Result.is_error
       (CV.make
          ~view:(q "V(X) :- R(X,Y)")
          ~citations:[ q "lambda P. CV(P) :- R(P,Y)" ]
          ()));
  Alcotest.(check bool) "param subset ok" true
    (Result.is_ok
       (CV.make
          ~view:(q "lambda X. V(X) :- R(X,Y)")
          ~citations:[ q "CV(D) :- D=\"fixed\"" ]
          ()))

let test_cite_pulls_snippets () =
  let db = paper_db () in
  let cv = Dc_gtopdb.Paper_views.v1 in
  let c = CV.cite cv db [ ("FID", int 11) ] in
  Alcotest.(check string) "view name" "V1" (Cit.view c);
  let names =
    List.filter_map (fun s -> field s "PName") (Cit.snippets c)
  in
  Alcotest.(check (list value_t)) "committee members"
    [ str "David Poyner"; str "Debbie Hay" ]
    (List.sort Dc_relational.Value.compare names)

let test_cite_missing_param () =
  let db = paper_db () in
  Alcotest.(check bool) "missing param raises" true
    (try
       ignore (CV.cite Dc_gtopdb.Paper_views.v1 db []);
       false
     with Invalid_argument _ -> true)

let test_cite_unparameterized () =
  let db = paper_db () in
  let c = CV.cite Dc_gtopdb.Paper_views.v2 db [] in
  Alcotest.(check int) "one snippet" 1 (List.length (Cit.snippets c));
  match Cit.snippets c with
  | [ s ] ->
      Alcotest.(check (option value_t)) "blurb"
        (Some (str Dc_gtopdb.Paper_views.gtopdb_blurb))
        (field s "c0")
  | _ -> Alcotest.fail "expected one snippet"

let test_post_hook () =
  let post c = Cit.make ~view:(Cit.view c) ~params:(Cit.params c) ~snippets:[] in
  let cv =
    CV.make_exn ~post
      ~view:(q "V(FID,FName,Desc) :- Family(FID,FName,Desc)")
      ~citations:[ q "CVx(FID,PName) :- Committee(FID,PName)" ]
      ()
  in
  let c = CV.cite cv (paper_db ()) [] in
  Alcotest.(check int) "post emptied snippets" 0 (List.length (Cit.snippets c))

let test_multiple_citation_queries () =
  let cv =
    CV.make_exn
      ~view:(q "lambda FID. V(FID,FName) :- Family(FID,FName,Desc)")
      ~citations:
        [
          q "lambda FID. CVa(FID,PName) :- Committee(FID,PName)";
          q "CVb(D) :- D=\"src\"";
        ]
      ()
  in
  let c = CV.cite cv (paper_db ()) [ ("FID", int 11) ] in
  let sources = List.sort_uniq String.compare (List.map Snip.source (Cit.snippets c)) in
  Alcotest.(check (list string)) "both sources" [ "CVa"; "CVb" ] sources

let test_set () =
  let set = CV.Set.of_list Dc_gtopdb.Paper_views.all in
  Alcotest.(check int) "three" 3 (CV.Set.size set);
  Alcotest.(check bool) "find" true (CV.Set.find set "V1" <> None);
  Alcotest.(check int) "view_set size" 3
    (Dc_rewriting.View.Set.size (CV.Set.view_set set))

let suite =
  [
    Alcotest.test_case "snippet" `Quick test_snippet;
    Alcotest.test_case "citation dedups snippets" `Quick test_citation_dedups_snippets;
    Alcotest.test_case "key and merge" `Quick test_citation_key_and_merge;
    Alcotest.test_case "citation sets" `Quick test_citation_set_ops;
    Alcotest.test_case "view validation" `Quick test_citation_view_validation;
    Alcotest.test_case "cite pulls snippets" `Quick test_cite_pulls_snippets;
    Alcotest.test_case "missing param" `Quick test_cite_missing_param;
    Alcotest.test_case "unparameterized cite" `Quick test_cite_unparameterized;
    Alcotest.test_case "post hook (F_V)" `Quick test_post_hook;
    Alcotest.test_case "multiple citation queries" `Quick test_multiple_citation_queries;
    Alcotest.test_case "citation view set" `Quick test_set;
  ]
