open Testutil
module C = Dc_citation
module E = Dc_citation.Engine
module R = Dc_relational
module G = Dc_gtopdb.Generator

let small = G.scale G.default_config ~families:15

let test_generator_deterministic () =
  let db1 = G.generate ~seed:42 ~config:small () in
  let db2 = G.generate ~seed:42 ~config:small () in
  Alcotest.(check bool) "same seed same db" true (R.Database.equal db1 db2);
  let db3 = G.generate ~seed:43 ~config:small () in
  Alcotest.(check bool) "different seed differs" false (R.Database.equal db1 db3)

let test_generator_shape () =
  let db = G.generate ~seed:7 ~config:small () in
  let fam = R.Database.relation_exn db "Family" in
  Alcotest.(check int) "families" 15 (R.Relation.cardinality fam);
  (* duplicate names present at 20% ratio over 15 draws, seed-checked *)
  let names = R.Relation.distinct_count fam [ 1 ] in
  Alcotest.(check bool) "some duplicates" true (names < 15);
  let committee = R.Database.relation_exn db "Committee" in
  Alcotest.(check bool) "committee nonempty" true
    (R.Relation.cardinality committee >= 15);
  Alcotest.(check int) "targets 2x" 30
    (R.Relation.cardinality (R.Database.relation_exn db "Target"))

let test_full_pipeline_on_generated_data () =
  let db = G.generate ~seed:11 ~config:small () in
  let engine =
    E.create ~selection:`All
      ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
      db Dc_repro.Views_catalog.all
  in
  let result = E.cite engine Dc_gtopdb.Paper_views.query_q in
  Alcotest.(check bool) "rewritings found" true (result.rewritings <> []);
  Alcotest.(check bool) "tuples cited" true (result.tuples <> []);
  (* result tuples = direct evaluation of Q over base *)
  let expected = List.sort R.Tuple.compare (eval_tuples db Dc_gtopdb.Paper_views.query_q) in
  let actual =
    List.sort R.Tuple.compare
      (List.map (fun (tc : E.tuple_citation) -> tc.tuple) result.tuples)
  in
  Alcotest.(check (list tuple_t)) "answers preserved" expected actual

let test_workload_runs_end_to_end () =
  let db = G.generate ~seed:3 ~config:small () in
  let engine = E.create db Dc_repro.Views_catalog.all in
  let workload = Dc_repro.Workload.generate ~seed:3 ~count:10 in
  List.iter
    (fun q ->
      let result = E.cite engine q in
      (* covered queries must reproduce the direct answer *)
      if result.rewritings <> [] then begin
        let expected = List.sort R.Tuple.compare (eval_tuples db q) in
        let actual =
          List.sort R.Tuple.compare
            (List.map (fun (tc : E.tuple_citation) -> tc.tuple) result.tuples)
        in
        Alcotest.(check (list tuple_t))
          ("answers for " ^ Dc_cq.Query.name q)
          expected actual
      end)
    workload

let test_every_tuple_has_wellformed_citation () =
  let db = G.generate ~seed:5 ~config:small () in
  let engine = E.create ~selection:`All db Dc_repro.Views_catalog.all in
  let result = E.cite engine Dc_gtopdb.Paper_views.query_q in
  List.iter
    (fun (tc : E.tuple_citation) ->
      Alcotest.(check bool) "expr has leaves" true
        (C.Cite_expr.size tc.expr > 0);
      Alcotest.(check bool) "citations nonempty" true (tc.citations <> []);
      (* every concrete citation renders in every format *)
      List.iter
        (fun (name, fmt) ->
          Alcotest.(check bool) name true
            (String.length (C.Fmt_citation.render fmt tc.citations) > 0))
        formats)
    result.tuples

let test_min_size_never_larger () =
  (* the min-size selection never yields a larger concrete citation than
     evaluating all rewritings and keeping the smallest *)
  let db = G.generate ~seed:9 ~config:small () in
  let views = Dc_gtopdb.Paper_views.all in
  let e_min = E.create db views in
  let e_all =
    E.create ~selection:`All ~policy:(C.Policy.make ~alt_r:C.Policy.Min_size ())
      db views
  in
  let r_min = E.cite e_min Dc_gtopdb.Paper_views.query_q in
  let r_all = E.cite e_all Dc_gtopdb.Paper_views.query_q in
  Alcotest.(check bool) "estimate <= exact-min + slack" true
    (C.Citation.Set.size r_min.result_citations
    <= C.Citation.Set.size r_all.result_citations)

let test_versioned_generated () =
  let db = G.generate ~seed:21 ~config:small () in
  let ve = C.Versioned_engine.of_engine @@ E.create db Dc_repro.Views_catalog.all in
  let cite () =
    Result.get_ok (C.Versioned_engine.cite_at ve 0 Dc_gtopdb.Paper_views.query_q)
  in
  let vc = cite () in
  Alcotest.(check bool) "verifies" true
    (C.Versioned_engine.verify ve 0 vc.digest = Ok true
    && List.equal R.Tuple.equal (cited_tuples (cite ())) (cited_tuples vc))

let suite =
  [
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator shape" `Quick test_generator_shape;
    Alcotest.test_case "pipeline on generated data" `Quick test_full_pipeline_on_generated_data;
    Alcotest.test_case "workload end-to-end" `Quick test_workload_runs_end_to_end;
    Alcotest.test_case "citations well-formed everywhere" `Quick test_every_tuple_has_wellformed_citation;
    Alcotest.test_case "min-size sanity" `Quick test_min_size_never_larger;
    Alcotest.test_case "versioned on generated" `Quick test_versioned_generated;
  ]

let test_catalog_and_workload_wellformed () =
  (* every catalogue view and workload template type-checks against the
     schema — guards against drift as the schema evolves *)
  let db = Dc_gtopdb.Schema_def.empty_database () in
  List.iter
    (fun cv ->
      List.iter
        (fun q ->
          Alcotest.(check (list string))
            (Dc_cq.Query.name q)
            []
            (List.map Dc_cq.Schema_check.problem_to_string
               (Dc_cq.Schema_check.check_query db q)))
        (C.Citation_view.definition cv :: C.Citation_view.citation_queries cv))
    Dc_repro.Views_catalog.all;
  List.iter
    (fun q ->
      Alcotest.(check (list string))
        (Dc_cq.Query.name q)
        []
        (List.map Dc_cq.Schema_check.problem_to_string
           (Dc_cq.Schema_check.check_query db q)))
    Dc_repro.Workload.templates;
  Alcotest.(check int) "take clamps" (List.length Dc_repro.Views_catalog.all)
    (List.length (Dc_repro.Views_catalog.take 999));
  Alcotest.(check int) "take 0" 0 (List.length (Dc_repro.Views_catalog.take 0))

let test_query_over_view_predicates () =
  (* a query written directly over a view predicate is answered against
     the materialized view (merged database), uncited *)
  let engine = E.create (paper_db ()) Dc_repro.Views_catalog.all in
  let result =
    E.cite engine (Testutil.parse "Q(FID,Text) :- V3(FID,Text)")
  in
  Alcotest.(check int) "view extent returned" 3 (List.length result.tuples)

let suite =
  suite
  @ [
      Alcotest.test_case "catalog/workload well-formed" `Quick
        test_catalog_and_workload_wellformed;
      Alcotest.test_case "query over view predicates" `Quick
        test_query_over_view_predicates;
    ]

(* Invariant: the min-size selection's citation leaves are always a
   subset of the keep-all evaluation's leaves (selection only prunes
   alternatives, never invents citations). *)
let prop_minsize_leaves_subset =
  Testutil.qtest "min-size leaves ⊆ keep-all leaves" QCheck.(int_bound 300)
    (fun seed ->
      let db = G.generate ~seed ~config:small () in
      let views = Dc_gtopdb.Paper_views.all in
      let e_min = E.create db views in
      let e_all =
        E.create ~selection:`All
          ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
          db views
      in
      let r_min = E.cite e_min Dc_gtopdb.Paper_views.query_q in
      let r_all = E.cite e_all Dc_gtopdb.Paper_views.query_q in
      let leaves r = C.Cite_expr.leaves r.E.result_expr in
      List.for_all
        (fun l -> List.mem l (leaves r_all))
        (leaves r_min))

let suite = suite @ [ prop_minsize_leaves_subset ]
