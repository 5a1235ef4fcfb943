open Testutil
module C = Dc_citation
module E = Dc_citation.Engine
module X = Dc_citation.Cite_expr
module R = Dc_relational

let calcitonin = tuple [ str "Calcitonin" ]

let expected_calcitonin_expr =
  (* (CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3) *)
  X.alt_r
    [
      X.alt
        [
          X.joint [ X.leaf ~view:"V1" ~params:[ ("FID", int 11) ]; X.leaf ~view:"V3" ~params:[] ];
          X.joint [ X.leaf ~view:"V1" ~params:[ ("FID", int 12) ]; X.leaf ~view:"V3" ~params:[] ];
        ];
      X.joint [ X.leaf ~view:"V2" ~params:[]; X.leaf ~view:"V3" ~params:[] ];
    ]

let keep_all_engine () =
  E.create ~selection:`All
    ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
    (paper_db ()) Dc_gtopdb.Paper_views.all

let test_paper_tuple_expression () =
  let result = E.cite (keep_all_engine ()) Dc_gtopdb.Paper_views.query_q in
  Alcotest.(check int) "two rewritings" 2 (List.length result.rewritings);
  Alcotest.(check int) "two result tuples" 2 (List.length result.tuples);
  let tc =
    List.find (fun (tc : E.tuple_citation) -> R.Tuple.equal tc.tuple calcitonin)
      result.tuples
  in
  Alcotest.(check cite_expr) "Definition 2.1/2.2 expression"
    expected_calcitonin_expr tc.expr

let test_min_size_selects_q2 () =
  let engine = E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  let result = E.cite engine Dc_gtopdb.Paper_views.query_q in
  Alcotest.(check int) "one selected" 1 (List.length result.selected);
  Alcotest.(check (list string)) "V2,V3 used"
    [ "V2"; "V3" ]
    (Dc_cq.Query.predicates (List.hd result.selected));
  (* final citation is CV2·CV3 concrete: two citations under union *)
  Alcotest.(check int) "two concrete citations" 2
    (C.Citation.Set.size result.result_citations);
  Alcotest.(check (list string)) "views cited" [ "V2"; "V3" ]
    (List.sort String.compare
       (List.map C.Citation.view result.result_citations))

let test_min_exact_matches_estimate_here () =
  let e1 = E.create ~selection:`Min_exact_size (paper_db ()) Dc_gtopdb.Paper_views.all in
  let r = E.cite e1 Dc_gtopdb.Paper_views.query_q in
  Alcotest.(check (list string)) "exact also picks V2,V3" [ "V2"; "V3" ]
    (Dc_cq.Query.predicates (List.hd r.selected))

let test_keep_all_unions_both () =
  let result = E.cite (keep_all_engine ()) Dc_gtopdb.Paper_views.query_q in
  (* keep-all + union: citations from both rewritings, incl. CV1(11),(12),(21) *)
  let views = List.map C.Citation.view result.result_citations in
  Alcotest.(check bool) "V1 cited" true (List.mem "V1" views);
  Alcotest.(check bool) "V2 cited" true (List.mem "V2" views);
  let v1_params =
    List.filter_map
      (fun c ->
        if C.Citation.view c = "V1" then List.assoc_opt "FID" (C.Citation.params c)
        else None)
      result.result_citations
  in
  Alcotest.(check (list value_t)) "all three FIDs"
    [ int 11; int 12; int 21 ]
    (List.sort R.Value.compare v1_params)

let test_join_policy () =
  let engine =
    E.create ~selection:`All
      ~policy:(C.Policy.make ~joint:C.Policy.Join ~alt_r:C.Policy.First ())
      (paper_db ()) Dc_gtopdb.Paper_views.all
  in
  let result = E.cite engine Dc_gtopdb.Paper_views.query_q in
  let tc =
    List.find (fun (tc : E.tuple_citation) -> R.Tuple.equal tc.tuple calcitonin)
      result.tuples
  in
  (* with Join for ·, each citation in the set is a composite *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "composite name" true
        (String.contains (C.Citation.view c) '\xc2'
        || String.length (C.Citation.view c) > 2))
    tc.citations;
  Alcotest.(check bool) "nonempty" true (tc.citations <> [])

let test_uncited_query () =
  let engine = E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  let result =
    E.cite engine (parse "Q(PName) :- Committee(FID,PName)")
  in
  Alcotest.(check int) "no rewritings" 0 (List.length result.rewritings);
  (* the answer is still returned, just uncited *)
  Alcotest.(check int) "five members" 5 (List.length result.tuples);
  List.iter
    (fun (tc : E.tuple_citation) ->
      Alcotest.(check int) "leafless expr" 0 (X.size tc.expr);
      Alcotest.(check int) "no citations" 0 (C.Citation.Set.size tc.citations))
    result.tuples;
  Alcotest.(check int) "no result citations" 0
    (C.Citation.Set.size result.result_citations)

let test_partial_engine () =
  let engine = E.create ~partial:true (paper_db ()) Dc_gtopdb.Paper_views.all in
  let result =
    E.cite engine
      (parse "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)")
  in
  Alcotest.(check bool) "partial rewritings exist" true (result.rewritings <> []);
  Alcotest.(check bool) "tuples produced" true (result.tuples <> [])

let test_parameterized_query_params_ignored () =
  (* Rewriting ignores the query's own lambda (paper: "In the
     rewritings, parameters are ignored"). *)
  let engine = E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  let q = parse "lambda FName. Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)" in
  let result = E.cite engine q in
  Alcotest.(check int) "two rewritings" 2 (List.length result.rewritings)

let test_cite_string_error () =
  let engine = E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  Alcotest.(check bool) "parse error surfaces" true
    (Result.is_error (E.cite_string engine "not a query"))

let test_leaf_cache_consistency () =
  let engine = E.create ~selection:`All (paper_db ()) Dc_gtopdb.Paper_views.all in
  let l : X.leaf = { view = "V1"; params = [ ("FID", int 11) ] } in
  let c1 = E.resolve_leaf engine l in
  let c2 = E.resolve_leaf engine l in
  Alcotest.(check bool) "memoized equal" true (C.Citation.equal c1 c2);
  Alcotest.(check int) "two committee snippets" 2
    (List.length (C.Citation.snippets c1))

(* Leaves whose parameter values print alike but differ in type must not
   share a leaf-cache entry: over a [TAny] key column, [Int 1] and
   [Str "1"] name different owners. *)
let test_leaf_cache_typed_values () =
  let any_rel name cols rows =
    R.Relation.of_list
      (R.Schema.make name (List.map (fun c -> R.Schema.attr c) cols))
      (List.map tuple rows)
  in
  let db =
    List.fold_left R.Database.add_relation R.Database.empty
      [
        any_rel "T" [ "K"; "V" ]
          [ [ int 1; str "a" ]; [ str "1"; str "b" ]; [ R.Value.Null; str "c" ];
            [ str "NULL"; str "d" ]; [ R.Value.Bool true; str "e" ];
            [ str "true"; str "f" ] ];
        any_rel "O" [ "K"; "Owner" ]
          [ [ int 1; str "int-owner" ]; [ str "1"; str "str-owner" ];
            [ R.Value.Null; str "null-owner" ]; [ str "NULL"; str "NULL-owner" ];
            [ R.Value.Bool true; str "bool-owner" ];
            [ str "true"; str "true-owner" ] ];
      ]
  in
  let views =
    [
      C.Citation_view.make_exn
        ~view:(parse "lambda K. VT(K,V) :- T(K,V)")
        ~citations:[ parse "lambda K. CT(K,N) :- O(K,N)" ]
        ();
    ]
  in
  let owners =
    [ ("a", "int-owner"); ("b", "str-owner"); ("c", "null-owner");
      ("d", "NULL-owner"); ("e", "bool-owner"); ("f", "true-owner") ]
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let shared = E.create db views in
  (* every tuple in one cite, so look-alike leaves meet in one cache *)
  let result = E.cite shared (parse "Q(K,V) :- T(K,V)") in
  Alcotest.(check int) "six tuples" 6 (List.length result.tuples);
  List.iter
    (fun (tc : E.tuple_citation) ->
      let v =
        match R.Tuple.get tc.tuple 1 with R.Value.Str v -> v | _ -> assert false
      in
      let rendered = C.Fmt_citation.render C.Fmt_citation.Json tc.citations in
      let own = List.assoc v owners in
      Alcotest.(check bool)
        (R.Tuple.to_string tc.tuple ^ " cites " ^ own)
        true
        (contains rendered ("\"" ^ own ^ "\""));
      List.iter
        (fun (_, other) ->
          if other <> own && contains rendered ("\"" ^ other ^ "\"") then
            Alcotest.failf "%s also cites %s" (R.Tuple.to_string tc.tuple) other)
        owners)
    result.tuples

let test_view_name_collision_rejected () =
  let bad =
    C.Citation_view.make_exn
      ~view:(parse "Family(FID,FName) :- Committee(FID,FName)")
      ~citations:[ parse "CVx(D) :- D=\"x\"" ]
      ()
  in
  Alcotest.(check bool) "collision raises" true
    (try
       ignore (E.create (paper_db ()) [ bad ]);
       false
     with Invalid_argument _ -> true)

let test_refresh () =
  let engine = E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  let db' =
    R.Database.insert (paper_db ()) "FamilyIntro"
      (tuple [ int 22; str "Histamine intro" ])
  in
  let engine' = E.refresh engine db' in
  let result = E.cite engine' Dc_gtopdb.Paper_views.query_q in
  Alcotest.(check int) "histamine now included" 3 (List.length result.tuples)

(* One engine's rewriting-plan cache keys typed constants: a query
   whose constant prints like an earlier query's ([Float 1234568.0] and
   [Float 1234567.0] both print as 1.23457e+06, [Float 1.0] and [Int 1]
   as 1) is answered with its own constant. *)
let test_plan_cache_typed_constants () =
  let e =
    E.create (Test_eval.typed_db ())
      [
        C.Citation_view.make_exn
          ~view:(parse "VR(K,V) :- R(K,V)")
          ~citations:[ parse "CVR(D) :- D=\"R\"" ]
          ();
      ]
  in
  List.iter
    (fun (q, k) ->
      let r = E.cite e (parse q) in
      Alcotest.(check (list tuple_t))
        q
        [ tuple [ str k ] ]
        (List.map (fun (tc : E.tuple_citation) -> tc.tuple) r.tuples))
    [
      ("Q(X) :- R(X, 1234567.0)", "a");
      ("Q(X) :- R(X, 1234568.0)", "b");
      ("Q(X) :- R(X, 1)", "c");
      ("Q(X) :- R(X, 1.0)", "d");
    ]

let suite =
  [
    Alcotest.test_case "paper tuple expression (E1)" `Quick test_paper_tuple_expression;
    Alcotest.test_case "min-size selects Q2 (E1)" `Quick test_min_size_selects_q2;
    Alcotest.test_case "min exact size" `Quick test_min_exact_matches_estimate_here;
    Alcotest.test_case "keep-all unions" `Quick test_keep_all_unions_both;
    Alcotest.test_case "join policy" `Quick test_join_policy;
    Alcotest.test_case "uncited query" `Quick test_uncited_query;
    Alcotest.test_case "partial engine" `Quick test_partial_engine;
    Alcotest.test_case "query params ignored" `Quick test_parameterized_query_params_ignored;
    Alcotest.test_case "cite_string error" `Quick test_cite_string_error;
    Alcotest.test_case "leaf cache" `Quick test_leaf_cache_consistency;
    Alcotest.test_case "leaf cache keys typed values" `Quick
      test_leaf_cache_typed_values;
    Alcotest.test_case "name collision" `Quick test_view_name_collision_rejected;
    Alcotest.test_case "refresh" `Quick test_refresh;
    Alcotest.test_case "plan cache keys typed constants" `Quick
      test_plan_cache_typed_constants;
  ]

