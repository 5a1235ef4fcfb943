open Testutil
module C = Dc_citation
module I = Dc_citation.Incremental
module E = Dc_citation.Engine
module R = Dc_relational
module D = Dc_relational.Delta

let make_reg ?(selection = `All) ?(policy = C.Policy.make ~alt_r:C.Policy.Keep_all ()) db =
  let engine = E.create ~selection ~policy db Dc_gtopdb.Paper_views.all in
  I.register engine Dc_gtopdb.Paper_views.query_q

(* Oracle: recompute from scratch over the updated database and compare
   the per-tuple formal expressions. *)
let expressions_of_tuples tuples =
  List.map
    (fun (tc : E.tuple_citation) -> (tc.tuple, tc.expr))
    tuples

let check_against_recompute ?(selection = `All) reg =
  let db = E.database (I.engine reg) in
  let engine =
    E.create ~selection
      ~policy:(E.policy (I.engine reg))
      db Dc_gtopdb.Paper_views.all
  in
  let fresh = E.cite engine (I.query reg) in
  let expected = expressions_of_tuples fresh.tuples in
  let actual = expressions_of_tuples (I.to_result reg).tuples in
  Alcotest.(check int) "same tuple count" (List.length expected)
    (List.length actual);
  List.iter2
    (fun (t1, e1) (t2, e2) ->
      Alcotest.(check tuple_t) "same tuple" t1 t2;
      Alcotest.(check cite_expr) "same expression" e1 e2)
    expected actual

let test_register_matches_engine () =
  let reg = make_reg (paper_db ()) in
  Alcotest.(check int) "two tuples cached" 2 (List.length (I.to_result reg).tuples);
  check_against_recompute reg

let test_insert_new_family () =
  let reg = make_reg (paper_db ()) in
  let delta =
    D.empty
    |> (fun d -> D.insert d "Family" (tuple [ int 30; str "Orexin"; str "O1" ]))
    |> fun d -> D.insert d "FamilyIntro" (tuple [ int 30; str "Orexin intro" ])
  in
  let reg = I.apply_delta reg delta in
  Alcotest.(check int) "three tuples now" 3 (List.length (I.to_result reg).tuples);
  Alcotest.(check bool) "affected tracked" true (I.affected_last reg >= 1);
  check_against_recompute reg

let test_insert_extra_binding () =
  (* A third Calcitonin family adds a binding (and a CV1 alternative)
     to an existing output tuple. *)
  let reg = make_reg (paper_db ()) in
  let delta =
    D.empty
    |> (fun d -> D.insert d "Family" (tuple [ int 13; str "Calcitonin"; str "C3" ]))
    |> fun d -> D.insert d "FamilyIntro" (tuple [ int 13; str "3rd" ])
  in
  let reg = I.apply_delta reg delta in
  check_against_recompute reg;
  let tc =
    List.find
      (fun (tc : E.tuple_citation) ->
        R.Tuple.equal tc.tuple (tuple [ str "Calcitonin" ]))
      (I.to_result reg).tuples
  in
  Alcotest.(check bool) "CV1(13) appears" true
    (List.exists
       (fun (l : C.Cite_expr.leaf) -> l.params = [ ("FID", int 13) ])
       (C.Cite_expr.leaves tc.expr))

let test_delete_removes_tuple () =
  let reg = make_reg (paper_db ()) in
  let delta =
    D.delete D.empty "FamilyIntro" (tuple [ int 21; str "Dopamine intro" ])
  in
  let reg = I.apply_delta reg delta in
  Alcotest.(check int) "dopamine gone" 1 (List.length (I.to_result reg).tuples);
  check_against_recompute reg

let test_delete_one_binding_keeps_tuple () =
  let reg = make_reg (paper_db ()) in
  let delta =
    D.delete D.empty "Family" (tuple [ int 12; str "Calcitonin"; str "C2" ])
  in
  let reg = I.apply_delta reg delta in
  Alcotest.(check int) "still two tuples" 2 (List.length (I.to_result reg).tuples);
  check_against_recompute reg

let test_citation_query_relation_change () =
  (* Committee feeds only CV1 (a citation query): formal expressions
     must not change, concrete CV1 snippets must. *)
  let reg = make_reg (paper_db ()) in
  let before =
    List.map (fun (tc : E.tuple_citation) -> tc.expr) (I.to_result reg).tuples
  in
  let delta =
    D.insert D.empty "Committee" (tuple [ int 11; str "New Member" ])
  in
  let reg = I.apply_delta reg delta in
  let after = List.map (fun (tc : E.tuple_citation) -> tc.expr) (I.to_result reg).tuples in
  List.iter2
    (fun e1 e2 -> Alcotest.(check cite_expr) "expr unchanged" e1 e2)
    before after;
  (* the calcitonin citations now include the new member *)
  let tc =
    List.find
      (fun (tc : E.tuple_citation) ->
        R.Tuple.equal tc.tuple (tuple [ str "Calcitonin" ]))
      (I.to_result reg).tuples
  in
  let snippet_values =
    List.concat_map
      (fun c -> List.filter_map (fun s -> field s "PName") (C.Citation.snippets c))
      tc.citations
  in
  Alcotest.(check bool) "new member cited" true
    (List.mem (str "New Member") snippet_values)

let test_noop_delta () =
  let reg = make_reg (paper_db ()) in
  let reg' = I.apply_delta reg D.empty in
  Alcotest.(check int) "nothing affected" 0 (I.affected_last reg');
  check_against_recompute reg'

let test_irrelevant_relation () =
  let reg = make_reg (paper_db ()) in
  let delta =
    D.insert D.empty "Target" (tuple [ int 999; str "T"; str "GPCR" ])
  in
  let reg = I.apply_delta reg delta in
  Alcotest.(check int) "no tuples affected" 0 (I.affected_last reg);
  check_against_recompute reg

let test_result_aggregates () =
  let reg = make_reg (paper_db ()) in
  Alcotest.(check bool) "result expr nonempty" true
    (C.Cite_expr.size (I.to_result reg).result_expr > 0);
  Alcotest.(check bool) "result citations nonempty" true
    ((I.to_result reg).result_citations <> [])

(* Random mixed deltas, checked against recompute every step. *)
let prop_incremental_equals_recompute =
  qtest "incremental = recompute under random deltas" QCheck.(int_bound 200)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        Dc_gtopdb.Generator.generate ~seed
          ~config:(Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config ~families:8)
          ()
      in
      let reg = ref (make_reg db) in
      let ok = ref true in
      for step = 0 to 2 do
        let fid = 100 + (seed mod 50) + step in
        let delta =
          if Random.State.bool rng then
            D.empty
            |> (fun d ->
                 D.insert d "Family"
                   (tuple [ int fid; str "Calcitonin"; str "CX" ]))
            |> fun d -> D.insert d "FamilyIntro" (tuple [ int fid; str "x" ])
          else
            match
              R.Relation.tuples
                (R.Database.relation_exn (E.database (I.engine !reg)) "FamilyIntro")
            with
            | [] -> D.empty
            | t :: _ -> D.delete D.empty "FamilyIntro" t
        in
        reg := I.apply_delta !reg delta;
        let db' = E.database (I.engine !reg) in
        let fresh =
          E.cite
            (E.create ~selection:`All
               ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
               db' Dc_gtopdb.Paper_views.all)
            Dc_gtopdb.Paper_views.query_q
        in
        let expected = expressions_of_tuples fresh.tuples in
        let actual = expressions_of_tuples (I.to_result !reg).tuples in
        if
          List.length expected <> List.length actual
          || not
               (List.for_all2
                  (fun (t1, e1) (t2, e2) ->
                    R.Tuple.equal t1 t2 && C.Cite_expr.equal e1 e2)
                  expected actual)
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* A registration reads as the cite it was registered from.            *)

module V = C.Versioned_engine

(* Under the default selection the paper's query has two rewritings and
   one is evaluated; the wire's [rewritings] counts both, registered or
   not. *)
let test_registered_rewriting_count () =
  let ve = V.of_engine @@ E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  let q = Dc_gtopdb.Paper_views.query_q in
  let count () = (Result.get_ok (V.summary_at ve 0 q)).result.rewriting_count in
  Alcotest.(check int) "unregistered" 2 (count ());
  Result.get_ok (V.register ve q);
  Alcotest.(check bool) "served from the registration" true
    (Result.get_ok (V.summary_at ve 0 q)).from_registration;
  Alcotest.(check int) "registered" 2 (count ());
  Alcotest.(check int) "cite_at's rewritings" 2
    (List.length (Result.get_ok (V.cite_at ve 0 q)).result.rewritings)

(* A query no view rewrites, answered through the contained fallback:
   the registration keeps the fallback's templates and its
   incompleteness, so a family outside the view's slice never joins the
   answer. *)
let test_registered_contained_fallback () =
  let v4 =
    C.Citation_view.make_exn
      ~view:(parse "V4(FID,FName) :- Family(FID,FName,\"C1\")")
      ~citations:[ parse "CV4(D) :- D=\"CV4\"" ]
      ()
  in
  let q = parse "Q(FName) :- Family(FID,FName,Desc)" in
  let ve = V.of_engine @@ E.create ~fallback_contained:true (paper_db ()) [ v4 ] in
  Result.get_ok (V.register ve q);
  let answers (r : E.result) =
    List.map
      (fun (tc : E.tuple_citation) ->
        R.Tuple.to_string tc.tuple ^ " " ^ C.Cite_expr.to_string tc.expr)
      r.tuples
  in
  let check v =
    let got = Result.get_ok (V.cite_at ve v q) in
    let fresh =
      E.cite
        (E.create ~fallback_contained:true
           (R.Version_store.checkout_exn (V.store ve) v)
           [ v4 ])
        q
    in
    Alcotest.(check bool) "served from the registration" true
      got.from_registration;
    Alcotest.(check bool) "incomplete" false got.result.complete;
    Alcotest.(check (list string)) "= a fresh cite" (answers fresh)
      (answers got.result);
    Alcotest.(check bool) "fresh cite incomplete too" false fresh.complete;
    answers got.result
  in
  Alcotest.(check int) "Calcitonin alone" 1 (List.length (check 0));
  let v =
    Result.get_ok
      (V.commit_delta ve
         (D.empty
         |> (fun d -> D.insert d "Family" (tuple [ int 30; str "X"; str "C1" ]))
         |> fun d -> D.insert d "Family" (tuple [ int 31; str "Y"; str "D9" ])))
  in
  Alcotest.(check int) "X joins, Y does not" 2 (List.length (check v))

let suite =
  [
    Alcotest.test_case "register matches engine" `Quick test_register_matches_engine;
    Alcotest.test_case "registered rewriting count" `Quick
      test_registered_rewriting_count;
    Alcotest.test_case "registered contained fallback" `Quick
      test_registered_contained_fallback;
    Alcotest.test_case "insert new family" `Quick test_insert_new_family;
    Alcotest.test_case "insert extra binding" `Quick test_insert_extra_binding;
    Alcotest.test_case "delete removes tuple" `Quick test_delete_removes_tuple;
    Alcotest.test_case "delete one binding" `Quick test_delete_one_binding_keeps_tuple;
    Alcotest.test_case "citation-query relation change" `Quick test_citation_query_relation_change;
    Alcotest.test_case "noop delta" `Quick test_noop_delta;
    Alcotest.test_case "irrelevant relation" `Quick test_irrelevant_relation;
    Alcotest.test_case "result aggregation" `Quick test_result_aggregates;
    prop_incremental_equals_recompute;
  ]

let test_incremental_with_catalog_views () =
  (* richer view set including the two-atom view VFamilyFull: deltas on
     either base relation propagate through the join correctly *)
  let db = paper_db () in
  let engine =
    E.create ~selection:`All
      ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
      db Dc_repro.Views_catalog.all
  in
  let reg = I.register engine Dc_gtopdb.Paper_views.query_q in
  let check reg =
    let db' = E.database (I.engine reg) in
    let fresh =
      E.cite
        (E.create ~selection:`All
           ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
           db' Dc_repro.Views_catalog.all)
        Dc_gtopdb.Paper_views.query_q
    in
    let exprs tuples =
      List.map (fun (tc : E.tuple_citation) -> (tc.tuple, tc.expr)) tuples
    in
    Alcotest.(check int) "same count"
      (List.length fresh.tuples)
      (List.length (I.to_result reg).tuples);
    List.iter2
      (fun (t1, e1) (t2, e2) ->
        Alcotest.(check tuple_t) "tuple" t1 t2;
        Alcotest.(check cite_expr) "expr" e1 e2)
      (exprs fresh.tuples)
      (exprs (I.to_result reg).tuples)
  in
  (* delta on Family (joins into VFamilyFull) *)
  let reg =
    I.apply_delta reg
      (D.empty
      |> fun d ->
      D.insert d "Family" (tuple [ int 40; str "Orexin"; str "O1" ]))
  in
  check reg;
  (* delta on FamilyIntro completes the join for family 40 *)
  let reg =
    I.apply_delta reg
      (D.insert D.empty "FamilyIntro" (tuple [ int 40; str "Orexin intro" ]))
  in
  Alcotest.(check bool) "orexin now present" true
    (List.exists
       (fun (tc : E.tuple_citation) ->
         R.Tuple.equal tc.tuple (tuple [ str "Orexin" ]))
       (I.to_result reg).tuples);
  check reg;
  (* and deletion retracts it through the join view too *)
  let reg =
    I.apply_delta reg
      (D.delete D.empty "Family" (tuple [ int 40; str "Orexin"; str "O1" ]))
  in
  Alcotest.(check bool) "orexin retracted" false
    (List.exists
       (fun (tc : E.tuple_citation) ->
         R.Tuple.equal tc.tuple (tuple [ str "Orexin" ]))
       (I.to_result reg).tuples);
  check reg

let suite =
  suite
  @ [
      Alcotest.test_case "incremental with catalog views" `Quick
        test_incremental_with_catalog_views;
    ]
