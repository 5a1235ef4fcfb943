open Testutil
module Cq = Dc_cq
module Rw = Dc_rewriting
module V = Dc_rewriting.View

let q = parse

let paper_views () =
  V.Set.of_list
    [
      V.of_query (q "lambda FID. V1(FID,FName,Desc) :- Family(FID,FName,Desc)");
      V.of_query (q "V2(FID,FName,Desc) :- Family(FID,FName,Desc)");
      V.of_query (q "V3(FID,Text) :- FamilyIntro(FID,Text)");
    ]

let view_names r =
  List.sort_uniq String.compare (Cq.Query.predicates r)

(* The bucket products of the oracle, and MiniCon's search. *)
let bucket_search level vs query =
  Dc_oracle.Bucket_search.search ~level vs query

let searches =
  [
    ("naive", bucket_search Rw.Bucket.Naive);
    ("bucket", bucket_search Rw.Bucket.Filtered);
    ("minicon", fun vs query -> Rw.Rewrite.search vs query);
  ]

let test_view_set () =
  let vs = paper_views () in
  Alcotest.(check int) "three views" 3 (V.Set.size vs);
  Alcotest.(check int) "two over Family" 2
    (List.length (V.Set.with_predicate vs "Family"));
  Alcotest.(check bool) "dup rejected" true
    (Result.is_error
       (V.Set.add vs (V.of_query (q "V1(X) :- Family(X,Y,Z)"))))

let test_expansion () =
  let vs = paper_views () in
  let r = q "Q(FName) :- V1(FID,FName,Desc), V3(FID,Text)" in
  match Rw.Expansion.expand vs r with
  | None -> Alcotest.fail "expansion failed"
  | Some (e, _) ->
      Alcotest.(check bool) "expansion over base preds" true
        (Cq.Query.predicates e = [ "Family"; "FamilyIntro" ]);
      Alcotest.(check bool) "equivalent to Q" true
        (Cq.Containment.equivalent e Dc_gtopdb.Paper_views.query_q)

let test_expansion_joins_on_head () =
  (* Passing the same variable twice must equate the view's head vars. *)
  let vs = V.Set.of_list [ V.of_query (q "V(X,Y) :- R(X,Y)") ] in
  let r = q "Q(A) :- V(A,A)" in
  match Rw.Expansion.expand vs r with
  | None -> Alcotest.fail "expansion failed"
  | Some (e, _) -> (
      match Cq.Query.body e with
      | [ atom ] ->
          let args = Cq.Atom.args atom in
          Alcotest.(check bool) "same var twice" true
            (List.length args = 2 && Cq.Term.equal (List.nth args 0) (List.nth args 1))
      | _ -> Alcotest.fail "one atom expected")

let test_expansion_constant_conflict () =
  (* V(X,X) called as V(1,2) can never match. *)
  let vs = V.Set.of_list [ V.of_query (q "V(X,X) :- R(X,X)") ] in
  let r = q "Q(A) :- V(A,B), A=1, B=2" in
  Alcotest.(check bool) "conflict detected" true
    (Rw.Expansion.expand vs r = None)

let test_paper_rewritings () =
  let vs = paper_views () in
  let { Rw.Rewrite.queries = rewritings; stats } =
    Rw.Rewrite.search vs Dc_gtopdb.Paper_views.query_q
  in
  Alcotest.(check int) "exactly two rewritings" 2 (List.length rewritings);
  Alcotest.(check bool) "no truncation" false stats.truncated;
  let names = List.map view_names rewritings in
  Alcotest.(check bool) "V1+V3 present" true
    (List.mem [ "V1"; "V3" ] names);
  Alcotest.(check bool) "V2+V3 present" true
    (List.mem [ "V2"; "V3" ] names);
  (* each rewriting verifies *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "verified" true
        (Rw.Expansion.is_equivalent_rewriting vs Dc_gtopdb.Paper_views.query_q r))
    rewritings

let test_strategies_agree_on_paper_example () =
  let vs = paper_views () in
  let result search =
    let rs = (search vs Dc_gtopdb.Paper_views.query_q).Rw.Rewrite.queries in
    List.sort_uniq compare (List.map view_names rs)
  in
  let minicon = result Rw.Rewrite.search in
  Alcotest.(check bool) "bucket = minicon" true
    (result (bucket_search Rw.Bucket.Filtered) = minicon);
  Alcotest.(check bool) "naive = minicon" true
    (result (bucket_search Rw.Bucket.Naive) = minicon)

let test_candidate_counts_ordered () =
  (* more synthetic views -> naive generates at least as many candidates
     as bucket, bucket at least as many as minicon *)
  let views =
    V.Set.of_list
      (List.map
         (fun cv -> Dc_citation.Citation_view.view cv)
         (Dc_repro.Views_catalog.synthetic ~count:8))
  in
  let query = q "Q(FID,FName) :- Family(FID,FName,Desc)" in
  let count name =
    ((List.assoc name searches) views query).Rw.Rewrite.stats.candidates
  in
  let naive = count "naive" in
  let bucket = count "bucket" in
  let minicon = count "minicon" in
  Alcotest.(check bool) "naive >= bucket" true (naive >= bucket);
  Alcotest.(check bool) "bucket >= minicon" true (bucket >= minicon);
  Alcotest.(check bool) "minicon > 0" true (minicon > 0)

let test_no_rewriting () =
  let vs = paper_views () in
  let rs =
    (Rw.Rewrite.search vs (q "Q(FID,PName) :- Committee(FID,PName)"))
      .Rw.Rewrite.queries
  in
  Alcotest.(check int) "uncovered" 0 (List.length rs)

let test_partial_rewriting () =
  let vs = paper_views () in
  let query = q "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)" in
  let rs = (Rw.Rewrite.search ~partial:true vs query).Rw.Rewrite.queries in
  Alcotest.(check bool) "partial rewriting exists" true (rs <> []);
  Alcotest.(check bool) "some rewriting uses a view and the base atom" true
    (List.exists
       (fun r ->
         let preds = view_names r in
         List.mem "Committee" preds
         && List.exists (fun p -> String.length p > 0 && p.[0] = 'V') preds)
       rs)

let test_existential_join_via_single_view () =
  (* Q(X) :- R(X,Y), S(Y,X); V covers both atoms through its own
     existential — only a single-occurrence (MiniCon-style) cover works. *)
  let vs = V.Set.of_list [ V.of_query (q "V(X) :- R(X,Y), S(Y,X)") ] in
  let query = q "Q(A) :- R(A,B), S(B,A)" in
  let rs = (Rw.Rewrite.search vs query).Rw.Rewrite.queries in
  Alcotest.(check int) "found via closure" 1 (List.length rs);
  match rs with
  | [ r ] -> Alcotest.(check int) "single atom" 1 (List.length (Cq.Query.body r))
  | _ -> ()

let test_minicon_beats_bucket_on_hidden_join () =
  (* A view hiding the join variable can only cover both subgoals with
     one occurrence; MiniCon's closure finds it, the bucket product is
     incomplete there. *)
  let vs =
    V.Set.of_list
      [
        V.of_query
          (q "VH(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)");
      ]
  in
  let query = q "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)" in
  let minicon = (Rw.Rewrite.search vs query).Rw.Rewrite.queries in
  let bucket = (bucket_search Rw.Bucket.Filtered vs query).Rw.Rewrite.queries in
  Alcotest.(check int) "minicon finds it" 1 (List.length minicon);
  Alcotest.(check int) "bucket misses it" 0 (List.length bucket)

let test_view_with_constant () =
  let vs = V.Set.of_list [ V.of_query (q "V(X) :- R(X,3)") ] in
  let rs = (Rw.Rewrite.search vs (q "Q(A) :- R(A,3)")).Rw.Rewrite.queries in
  Alcotest.(check int) "constant view matches" 1 (List.length rs);
  let rs2 = (Rw.Rewrite.search vs (q "Q(A) :- R(A,4)")).Rw.Rewrite.queries in
  Alcotest.(check int) "different constant rejected" 0 (List.length rs2)

let test_minimize_rewriting () =
  let vs = paper_views () in
  let r = q "Qr(FName) :- V2(FID,FName,Desc), V2(FID2,FName,Desc2), V3(FID,Text)" in
  let m =
    Rw.Rewrite.minimize_rewriting vs Dc_gtopdb.Paper_views.query_q r
  in
  Alcotest.(check int) "redundant copy dropped" 2 (List.length (Cq.Query.body m))

let test_cost_model () =
  let db = paper_db () in
  let vs = paper_views () in
  let r1 = q "Q1(FName) :- V1(FID,FName,Desc), V3(FID,Text)" in
  let r2 = q "Q2(FName) :- V2(FID,FName,Desc), V3(FID,Text)" in
  (* |Family| = 4 distinct FIDs, so Q1's citation costs 4+1, Q2's 1+1. *)
  Alcotest.(check int) "Q1 size" 5 (Rw.Cost.citation_size db vs r1);
  Alcotest.(check int) "Q2 size" 2 (Rw.Cost.citation_size db vs r2);
  (match Rw.Cost.choose_min_size db vs [ r1; r2 ] with
  | Some best -> Alcotest.(check string) "Q2 wins" "Q2" (Cq.Query.name best)
  | None -> Alcotest.fail "no choice");
  (* exact counts agree here *)
  Alcotest.(check int) "exact Q1" 5 (Rw.Cost.citation_size ~exact:true db vs r1)

let test_cost_scales_with_db () =
  let vs = paper_views () in
  let small = Dc_gtopdb.Generator.generate ~seed:1 ~config:(Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config ~families:10) () in
  let large = Dc_gtopdb.Generator.generate ~seed:1 ~config:(Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config ~families:100) () in
  let r1 = q "Q1(FName) :- V1(FID,FName,Desc), V3(FID,Text)" in
  let r2 = q "Q2(FName) :- V2(FID,FName,Desc), V3(FID,Text)" in
  Alcotest.(check bool) "parameterized grows" true
    (Rw.Cost.citation_size large vs r1 > Rw.Cost.citation_size small vs r1);
  Alcotest.(check int) "unparameterized constant"
    (Rw.Cost.citation_size small vs r2)
    (Rw.Cost.citation_size large vs r2)

(* Soundness, property-tested: the rewriting evaluated over materialized
   views returns exactly the query's answer over the base database. *)
let prop_rewriting_soundness =
  qtest "rewritings compute the original query" QCheck.(int_bound 200)
    (fun seed ->
      let db =
        Dc_gtopdb.Generator.generate ~seed
          ~config:(Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config ~families:10)
          ()
      in
      let cviews = Dc_repro.Views_catalog.all in
      let vs =
        Dc_citation.Citation_view.Set.view_set
          (Dc_citation.Citation_view.Set.of_list cviews)
      in
      let view_db =
        List.fold_left
          (fun acc cv ->
            Dc_relational.Database.add_relation acc
              (Cq.Eval.result db (Dc_citation.Citation_view.definition cv)))
          db cviews
      in
      List.for_all
        (fun query ->
          let rs = (Rw.Rewrite.search vs query).Rw.Rewrite.queries in
          let expected =
            List.sort Dc_relational.Tuple.compare (eval_tuples db query)
          in
          List.for_all
            (fun r ->
              List.sort Dc_relational.Tuple.compare (eval_tuples view_db r)
              = expected)
            rs)
        (Dc_repro.Workload.generate ~seed ~count:3))

(* Regression for the accumulator rewrite (cons + final reverse): kept
   rewritings come back in discovery order, named "<q>_rw0", "_rw1", …
   with no duplicates, and [stats.kept] matches the returned count. *)
let test_names_and_order () =
  let vs = paper_views () in
  List.iter
    (fun (_, search) ->
      let rewritings, (stats : Rw.Rewrite.stats) =
        (let o = search vs Dc_gtopdb.Paper_views.query_q in
         (o.Rw.Rewrite.queries, o.Rw.Rewrite.stats))
      in
      Alcotest.(check (list string)) "sequential _rw<i> names"
        (List.mapi (fun i _ -> Printf.sprintf "Q_rw%d" i) rewritings)
        (List.map Cq.Query.name rewritings);
      Alcotest.(check int) "stats.kept = returned" (List.length rewritings)
        stats.kept;
      let uniq =
        List.sort_uniq compare (List.map Cq.Query.to_string rewritings)
      in
      Alcotest.(check int) "no duplicates" (List.length rewritings)
        (List.length uniq))
    searches

(* MiniCon against the bucket-product oracle over generated workloads:
   whatever either product keeps, MiniCon keeps an equivalent of, and
   everything MiniCon keeps is its own core.  The products miss hidden
   joins, so MiniCon may keep more. *)
let test_minicon_covers_bucket_products () =
  List.iter
    (fun count ->
      let vs =
        V.Set.of_list
          (List.map Dc_citation.Citation_view.view
             (Dc_repro.Views_catalog.all
             @ Dc_repro.Views_catalog.synthetic ~count))
      in
      for seed = 1 to 8 do
        List.iter
          (fun query ->
            let minicon = (Rw.Rewrite.search vs query).Rw.Rewrite.queries in
            let label =
              Printf.sprintf "%d synthetic, %s" count
                (Cq.Query.to_string query)
            in
            List.iter
              (fun r ->
                Alcotest.(check int)
                  (label ^ ": a core") (List.length (Cq.Query.body r))
                  (List.length (Cq.Query.body (Dc_oracle.Minimize.minimize r))))
              minicon;
            List.iter
              (fun level ->
                List.iter
                  (fun r ->
                    if not (List.exists (Cq.Containment.equivalent r) minicon)
                    then
                      Alcotest.failf "%s: MiniCon misses %s" label
                        (Cq.Query.to_string r))
                  (bucket_search level vs query).Rw.Rewrite.queries)
              [ Rw.Bucket.Naive; Rw.Bucket.Filtered ])
          (Dc_repro.Workload.generate ~seed ~count:5)
      done)
    [ 0; 4; 8 ]

let test_mcr_names () =
  let vs = paper_views () in
  (* Q3 has no equivalent rewriting (Desc is not exposed by V3's join
     partner here), but contained ones exist *)
  let q3 = q "Q3(FName) :- Family(FID,FName,Desc), Committee(FID,PName)" in
  let disjuncts, (stats : Rw.Rewrite.stats) =
    Rw.Rewrite.maximally_contained vs q3
  in
  Alcotest.(check int) "stats.kept = returned" (List.length disjuncts)
    stats.kept;
  Alcotest.(check (list string)) "sequential _mcr<i> names"
    (List.mapi (fun i _ -> Printf.sprintf "Q3_mcr%d" i) disjuncts)
    (List.map Cq.Query.name disjuncts)

let suite =
  [
    Alcotest.test_case "view set" `Quick test_view_set;
    Alcotest.test_case "expansion" `Quick test_expansion;
    Alcotest.test_case "expansion equates head vars" `Quick test_expansion_joins_on_head;
    Alcotest.test_case "expansion constant conflict" `Quick test_expansion_constant_conflict;
    Alcotest.test_case "paper rewritings" `Quick test_paper_rewritings;
    Alcotest.test_case "strategies agree" `Quick test_strategies_agree_on_paper_example;
    Alcotest.test_case "candidate counts ordered" `Quick test_candidate_counts_ordered;
    Alcotest.test_case "uncovered query" `Quick test_no_rewriting;
    Alcotest.test_case "partial rewriting" `Quick test_partial_rewriting;
    Alcotest.test_case "existential join single view" `Quick test_existential_join_via_single_view;
    Alcotest.test_case "minicon beats bucket (hidden join)" `Quick test_minicon_beats_bucket_on_hidden_join;
    Alcotest.test_case "view with constant" `Quick test_view_with_constant;
    Alcotest.test_case "minimize rewriting" `Quick test_minimize_rewriting;
    Alcotest.test_case "cost model (paper sizes)" `Quick test_cost_model;
    Alcotest.test_case "cost scales with db" `Quick test_cost_scales_with_db;
    Alcotest.test_case "sequential names, no duplicates" `Quick
      test_names_and_order;
    Alcotest.test_case "maximally contained names" `Quick test_mcr_names;
    Alcotest.test_case "minicon covers the bucket products" `Quick
      test_minicon_covers_bucket_products;
    prop_rewriting_soundness;
  ]
