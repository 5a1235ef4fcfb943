open Testutil
module Cq = Dc_cq
module U = Dc_repro.Ucq

let q = parse

let test_make () =
  Alcotest.(check bool) "mixed arity rejected" true
    (Result.is_error
       (U.make ~name:"U" [ q "Q(X) :- R(X,Y)"; q "Q(X,Y) :- R(X,Y)" ]));
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (U.make ~name:"U" []))

let test_containment () =
  let u =
    U.make_exn ~name:"U" [ q "Q(X) :- R(X,3)"; q "Q(X) :- R(X,4)" ]
  in
  Alcotest.(check bool) "disjunct contained" true
    (U.contained_cq (q "Q(X) :- R(X,3)") u);
  Alcotest.(check bool) "general not contained" false
    (U.contained_cq (q "Q(X) :- R(X,Y)") u);
  let general = U.make_exn ~name:"G" [ q "Q(X) :- R(X,Y)" ] in
  Alcotest.(check bool) "u in general" true (U.contained u general);
  Alcotest.(check bool) "general not in u" false (U.contained general u);
  Alcotest.(check bool) "self equivalent" true (U.equivalent u u)

let test_run () =
  let db = rs_db () in
  let u =
    U.make_exn ~name:"U" [ q "Q1(X) :- R(X,2)"; q "Q2(X) :- R(X,3)" ]
  in
  let results = U.run db u in
  Alcotest.(check int) "three outputs" 3 (List.length results);
  (* each output lists the contributing disjuncts *)
  List.iter
    (fun (_, contribs) ->
      Alcotest.(check bool) "at least one disjunct" true (contribs <> []))
    results

let test_run_overlap () =
  let db = rs_db () in
  let u =
    U.make_exn ~name:"U" [ q "Q1(X) :- R(X,Y)"; q "Q2(X) :- R(X,3)" ]
  in
  let results = U.run db u in
  let for_2 =
    List.find
      (fun (t, _) -> Dc_relational.Tuple.equal t (int_tuple [ 2 ]))
      results
  in
  Alcotest.(check int) "tuple 2 from both disjuncts" 2 (List.length (snd for_2))

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make;
    Alcotest.test_case "containment" `Quick test_containment;
    Alcotest.test_case "run" `Quick test_run;
    Alcotest.test_case "run with overlap" `Quick test_run_overlap;
  ]
