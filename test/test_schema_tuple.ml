open Testutil
module S = Dc_relational.Schema
module T = Dc_relational.Tuple
module V = Dc_relational.Value

let sample =
  S.make "Person" ~key:[ "PID" ]
    [ S.attr ~ty:V.TInt "PID"; S.attr ~ty:V.TStr "Name"; S.attr "Extra" ]

let test_basics () =
  Alcotest.(check string) "name" "Person" (S.name sample);
  Alcotest.(check int) "arity" 3 (S.arity sample);
  Alcotest.(check (list string)) "key" [ "PID" ] (S.key sample);
  Alcotest.(check (list int)) "key positions" [ 0 ] (S.key_positions sample)

let test_position () =
  Alcotest.(check (option int)) "Name at 1" (Some 1) (S.position sample "Name");
  Alcotest.(check (option int)) "missing" None (S.position sample "Nope");
  Alcotest.(check string) "attr name" "Extra" (List.nth (S.attributes sample) 2).name

let test_duplicate_attr_rejected () =
  Alcotest.check_raises "duplicate attribute"
    (Invalid_argument "Schema.make Bad: duplicate attribute") (fun () ->
      ignore (S.make "Bad" [ S.attr "X"; S.attr "X" ]))

let test_bad_key_rejected () =
  Alcotest.check_raises "key not attribute"
    (Invalid_argument "Schema.make Bad: key column K not an attribute")
    (fun () -> ignore (S.make "Bad" ~key:[ "K" ] [ S.attr "X" ]))

let test_conforms () =
  Alcotest.(check bool) "good row" true
    (S.conforms sample [| V.Int 1; V.Str "a"; V.Bool true |]);
  Alcotest.(check bool) "wrong arity" false (S.conforms sample [| V.Int 1 |]);
  Alcotest.(check bool) "wrong type" false
    (S.conforms sample [| V.Str "x"; V.Str "a"; V.Null |]);
  Alcotest.(check bool) "null anywhere" true
    (S.conforms sample [| V.Null; V.Null; V.Null |])

let test_tuple_ops () =
  let t = T.make [ V.Int 1; V.Str "a"; V.Int 9 ] in
  Alcotest.(check int) "arity" 3 (T.arity t);
  Alcotest.(check value_t) "get" (V.Str "a") (T.get t 1);
  Alcotest.(check tuple_t) "project" (T.make [ V.Int 9; V.Int 1 ])
    (T.project t [ 2; 0 ]);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Tuple.get: index 5 out of range") (fun () ->
      ignore (T.get t 5))

let test_tuple_compare () =
  let a = int_tuple [ 1; 2 ] and b = int_tuple [ 1; 3 ] in
  Alcotest.(check bool) "a < b" true (T.compare a b < 0);
  Alcotest.(check bool) "shorter first" true
    (T.compare (int_tuple [ 9 ]) a < 0);
  Alcotest.(check bool) "equal" true (T.equal a (int_tuple [ 1; 2 ]))

let arb_tuple =
  QCheck.(map (fun l -> int_tuple l) (list_of_size (Gen.int_range 0 4) small_signed_int))

let prop_project_id =
  qtest "projecting all positions is identity" arb_tuple (fun t ->
      T.equal t (T.project t (List.init (T.arity t) Fun.id)))

let prop_compare_antisym =
  qtest "tuple compare antisymmetric" QCheck.(pair arb_tuple arb_tuple)
    (fun (a, b) -> (T.compare a b > 0) = (T.compare b a < 0))

(* Regression: [Tuple.hash] must reach every column.  [Hashtbl.hash]
   samples only a bounded prefix of the structure, so wide tuples
   sharing a prefix all landed in one bucket — the citation views'
   result grouping and the hash indexes degenerated to lists. *)
let test_tuple_hash_full_width () =
  let wide suffix =
    T.make (List.init 15 (fun i -> V.Int i) @ [ V.Int suffix ])
  in
  let tuples = List.init 20 wide in
  Alcotest.(check int) "generic hash collides on the shared prefix" 1
    (List.length (List.sort_uniq compare (List.map Hashtbl.hash tuples)));
  Alcotest.(check int) "Tuple.hash distinguishes the suffix" 20
    (List.length (List.sort_uniq compare (List.map T.hash tuples)));
  (* hash/equal stay consistent: equal tuples hash equal *)
  Alcotest.(check int) "equal tuples, equal hash" (T.hash (wide 3))
    (T.hash (T.make (T.to_list (wide 3))))

let prop_hash_equal_consistent =
  qtest "equal tuples hash equal" arb_tuple (fun t ->
      T.hash t = T.hash (T.make (T.to_list t)))

let suite =
  [
    Alcotest.test_case "schema basics" `Quick test_basics;
    Alcotest.test_case "position lookup" `Quick test_position;
    Alcotest.test_case "duplicate attr rejected" `Quick test_duplicate_attr_rejected;
    Alcotest.test_case "bad key rejected" `Quick test_bad_key_rejected;
    Alcotest.test_case "conforms" `Quick test_conforms;
    Alcotest.test_case "tuple ops" `Quick test_tuple_ops;
    Alcotest.test_case "tuple compare" `Quick test_tuple_compare;
    Alcotest.test_case "tuple hash reaches every column" `Quick
      test_tuple_hash_full_width;
    prop_project_id;
    prop_compare_antisym;
    prop_hash_equal_consistent;
  ]
