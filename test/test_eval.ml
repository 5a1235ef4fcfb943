open Testutil
module Cq = Dc_cq
module E = Dc_cq.Eval
module R = Dc_relational

let q = parse

let test_single_atom () =
  let db = rs_db () in
  check_tuples "all of R"
    [ int_tuple [ 1; 2 ]; int_tuple [ 2; 3 ]; int_tuple [ 3; 3 ] ]
    (eval_tuples db (q "Q(X,Y) :- R(X,Y)"))

let test_join () =
  let db = rs_db () in
  (* R(X,Z), S(Z,C): (1,2)-a (2,3)-b (3,3)-b *)
  check_tuples "join"
    [
      tuple [ int 1; str "a" ];
      tuple [ int 2; str "b" ];
      tuple [ int 3; str "b" ];
    ]
    (eval_tuples db (q "Q(X,C) :- R(X,Z), S(Z,C)"))

let test_constant_selection () =
  let db = rs_db () in
  check_tuples "R with B=3" [ int_tuple [ 2 ]; int_tuple [ 3 ] ]
    (eval_tuples db (q "Q(X) :- R(X,3)"))

let test_repeated_variable () =
  let db = rs_db () in
  check_tuples "self pairs" [ int_tuple [ 3 ] ]
    (eval_tuples db (q "Q(X) :- R(X,X)"))

let test_projection_dedup () =
  let db = rs_db () in
  (* projecting B of R: {2,3,3} -> {2,3} *)
  check_tuples "set semantics" [ int_tuple [ 2 ]; int_tuple [ 3 ] ]
    (eval_tuples db (q "Q(Y) :- R(X,Y)"))

let test_bindings_per_tuple () =
  let db = rs_db () in
  let results = E.run db (q "Q(Y) :- R(X,Y)") in
  let bindings_for t =
    List.assoc_opt t (List.map (fun (a, b) -> (R.Tuple.to_list a, b)) results)
  in
  (match bindings_for [ int 3 ] with
  | Some bs -> Alcotest.(check int) "two bindings for 3" 2 (List.length bs)
  | None -> Alcotest.fail "missing tuple 3");
  match bindings_for [ int 2 ] with
  | Some bs -> Alcotest.(check int) "one binding for 2" 1 (List.length bs)
  | None -> Alcotest.fail "missing tuple 2"

let test_head_constant () =
  let db = rs_db () in
  check_tuples "constant in head"
    [ tuple [ int 1; str "tag" ] ]
    (eval_tuples db (q "Q(X,T) :- R(X,2), T=\"tag\""))

let test_truth_atom () =
  let db = rs_db () in
  (* CV2-style constant-only query evaluates to its single tuple *)
  check_tuples "constant query" [ tuple [ str "blurb" ] ]
    (eval_tuples db (q "CV2(D) :- D=\"blurb\""))

let test_unknown_relation () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (E.bindings (rs_db ()) (q "Q(X) :- Nope(X)"));
       false
     with E.Unknown_relation "Nope" -> true)

let test_empty_result () =
  let db = rs_db () in
  Alcotest.(check int) "no matches" 0
    (List.length (eval_tuples db (q "Q(X) :- R(X,99)")));
  Alcotest.(check bool) "holds false" false (E.holds db (q "Q(X) :- R(X,99)"));
  Alcotest.(check bool) "holds true" true (E.holds db (q "Q(X) :- R(X,2)"))

let test_cartesian_product () =
  let db = rs_db () in
  Alcotest.(check int) "3x2 product" 6
    (List.length (E.bindings db (q "Q(X,Y) :- R(X,A), S(Y,B)")))

let test_paper_query () =
  let db = paper_db () in
  check_tuples "paper Q result"
    [ tuple [ str "Calcitonin" ]; tuple [ str "Dopamine receptors" ] ]
    (eval_tuples db Dc_gtopdb.Paper_views.query_q);
  (* two bindings behind Calcitonin (families 11 and 12) *)
  let results = E.run db Dc_gtopdb.Paper_views.query_q in
  let calcitonin =
    List.find (fun (t, _) -> R.Tuple.equal t (tuple [ str "Calcitonin" ])) results
  in
  Alcotest.(check int) "two bindings" 2 (List.length (snd calcitonin))

let test_result_schema () =
  let db = rs_db () in
  let rel = E.result db (q "Q(X,Y) :- R(X,Y)") in
  Alcotest.(check string) "named after query" "Q" (R.Relation.name rel);
  Alcotest.(check int) "cardinality" 3 (R.Relation.cardinality rel)

(* A repeated head variable is renamed by position, and the renamed
   column must not take a name a later head variable has. *)
let test_result_schema_distinct () =
  let rel = E.result (rs_db ()) (q "Q(X,X,X_1) :- R(X,X_1)") in
  Alcotest.(check (list string)) "distinct columns" [ "X"; "X_1"; "X_1_2" ]
    (List.map
       (fun (a : R.Schema.attribute) -> a.name)
       (R.Schema.attributes (R.Relation.schema rel)));
  Alcotest.(check int) "one row per R row" 3 (R.Relation.cardinality rel)

let test_binding_module () =
  let b = E.Binding.of_list [ ("X", int 1); ("Y", str "a") ] in
  Alcotest.(check (option value_t)) "find" (Some (int 1)) (E.Binding.find b "X");
  Alcotest.(check (list value_t)) "values ordered" [ str "a"; int 1 ]
    (E.Binding.values b [ "Y"; "X" ]);
  let r = E.Binding.restrict b [ "X" ] in
  Alcotest.(check (option value_t)) "restricted" None (E.Binding.find r "Y")

let test_binding_restrict () =
  let b = E.Binding.of_list [ ("X", int 1); ("Y", str "a"); ("Z", int 3) ] in
  (* duplicate names in the keep list are harmless *)
  let r = E.Binding.restrict b [ "Z"; "X"; "X" ] in
  Alcotest.(check (option value_t)) "X kept" (Some (int 1)) (E.Binding.find r "X");
  Alcotest.(check (option value_t)) "Z kept" (Some (int 3)) (E.Binding.find r "Z");
  Alcotest.(check (option value_t)) "Y dropped" None (E.Binding.find r "Y");
  Alcotest.(check int) "two entries" 2 (List.length (E.Binding.to_list r));
  Alcotest.(check bool) "empty keep list" true
    (E.Binding.equal E.Binding.empty (E.Binding.restrict b []));
  Alcotest.(check bool) "unknown names ignored" true
    (E.Binding.equal r (E.Binding.restrict b [ "Z"; "X"; "W" ]))

(* Against a generated database: every binding reported actually
   satisfies every atom, and tuple grouping is exact. *)
let prop_bindings_satisfy =
  qtest "bindings satisfy all atoms" QCheck.(int_bound 300) (fun seed ->
      let db = Dc_gtopdb.Generator.generate ~seed ~config:(Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config ~families:12) () in
      List.for_all
        (fun qq ->
          List.for_all
            (fun b ->
              List.for_all
                (fun atom ->
                  let t =
                    R.Tuple.make
                      (List.map
                         (function
                           | Cq.Term.Const c -> c
                           | Cq.Term.Var v -> E.Binding.find_exn b v)
                         (Cq.Atom.args atom))
                  in
                  R.Relation.mem (R.Database.relation_exn db (Cq.Atom.pred atom)) t)
                (Cq.Query.body qq))
            (E.bindings db qq))
        (Dc_repro.Workload.generate ~seed ~count:3))

(* R(K, V) with typed values that print alike: [Value.pp] shows
   1234567.0 and 1234568.0 both as 1.23457e+06, and [Int 1] and
   [Float 1.0] both as 1. *)
let typed_db () =
  let schema =
    R.Schema.make "R"
      [ R.Schema.attr ~ty:R.Value.TStr "K"; R.Schema.attr ~ty:R.Value.TAny "V" ]
  in
  R.Database.insert_list
    (R.Database.create_relation R.Database.empty schema)
    "R"
    [
      tuple [ str "a"; R.Value.Float 1234567.0 ];
      tuple [ str "b"; R.Value.Float 1234568.0 ];
      tuple [ str "c"; int 1 ];
      tuple [ str "d"; R.Value.Float 1.0 ];
    ]

(* One shared cache keys compiled plans by the typed query, so a query
   whose constants print like an earlier one's gets a plan of its own. *)
let test_plan_cache_typed_constants () =
  let db = typed_db () in
  let cache = Cq.Eval.make_cache () in
  let answer q = List.map fst (Cq.Eval.run ~cache db (parse q)) in
  List.iter
    (fun (q, k) ->
      Alcotest.(check (list tuple_t)) q [ tuple [ str k ] ] (answer q))
    [
      ("Q(X) :- R(X, 1234567.0)", "a");
      ("Q(X) :- R(X, 1234568.0)", "b");
      ("Q(X) :- R(X, 1)", "c");
      ("Q(X) :- R(X, 1.0)", "d");
    ]

let suite =
  [
    Alcotest.test_case "single atom" `Quick test_single_atom;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "constant selection" `Quick test_constant_selection;
    Alcotest.test_case "repeated variable" `Quick test_repeated_variable;
    Alcotest.test_case "projection dedup" `Quick test_projection_dedup;
    Alcotest.test_case "bindings per tuple" `Quick test_bindings_per_tuple;
    Alcotest.test_case "head constant" `Quick test_head_constant;
    Alcotest.test_case "truth atom" `Quick test_truth_atom;
    Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
    Alcotest.test_case "empty result / holds" `Quick test_empty_result;
    Alcotest.test_case "cartesian product" `Quick test_cartesian_product;
    Alcotest.test_case "paper query" `Quick test_paper_query;
    Alcotest.test_case "result schema" `Quick test_result_schema;
    Alcotest.test_case "result schema names are distinct" `Quick
      test_result_schema_distinct;
    Alcotest.test_case "binding module" `Quick test_binding_module;
    Alcotest.test_case "binding restrict" `Quick test_binding_restrict;
    prop_bindings_satisfy;
    Alcotest.test_case "plan cache keys typed constants" `Quick
      test_plan_cache_typed_constants;
  ]
