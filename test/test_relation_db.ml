open Testutil
module R = Dc_relational

let int_schema name cols =
  R.Schema.make name
    (List.map (fun c -> R.Schema.attr ~ty:R.Value.TInt c) cols)

let test_insert_delete () =
  let rel = R.Relation.empty (int_schema "T" [ "A"; "B" ]) in
  let rel = R.Relation.insert rel (int_tuple [ 1; 2 ]) in
  let rel = R.Relation.insert rel (int_tuple [ 1; 2 ]) in
  Alcotest.(check int) "set semantics" 1 (R.Relation.cardinality rel);
  let rel = R.Relation.insert rel (int_tuple [ 3; 4 ]) in
  let rel = R.Relation.delete rel (int_tuple [ 1; 2 ]) in
  check_tuples "remaining" [ int_tuple [ 3; 4 ] ] (R.Relation.tuples rel)

let test_nonconforming_rejected () =
  let rel = R.Relation.empty (int_schema "T" [ "A" ]) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (R.Relation.insert rel (tuple [ str "x" ]));
       false
     with Invalid_argument _ -> true)

let test_distinct_count () =
  let rel =
    R.Relation.of_list (int_schema "T" [ "A"; "B" ])
      [ int_tuple [ 1; 1 ]; int_tuple [ 1; 2 ]; int_tuple [ 2; 2 ] ]
  in
  Alcotest.(check int) "distinct A" 2 (R.Relation.distinct_count rel [ 0 ]);
  Alcotest.(check int) "distinct B" 2 (R.Relation.distinct_count rel [ 1 ]);
  Alcotest.(check int) "distinct AB" 3 (R.Relation.distinct_count rel [ 0; 1 ])

let test_diff () =
  let s = int_schema "T" [ "A" ] in
  let old_r = R.Relation.of_list s [ int_tuple [ 1 ]; int_tuple [ 2 ] ] in
  let new_r = R.Relation.of_list s [ int_tuple [ 2 ]; int_tuple [ 3 ] ] in
  let ins, del = R.Relation.diff old_r new_r in
  check_tuples "inserted" [ int_tuple [ 3 ] ] ins;
  check_tuples "deleted" [ int_tuple [ 1 ] ] del

let test_index () =
  let rel =
    R.Relation.of_list (int_schema "T" [ "A"; "B" ])
      [ int_tuple [ 1; 1 ]; int_tuple [ 1; 2 ]; int_tuple [ 2; 2 ] ]
  in
  let idx = R.Index.build rel [ 0 ] in
  Alcotest.(check int) "two tuples under A=1" 2
    (List.length (R.Index.lookup_key idx [| R.Value.Int 1 |]));
  Alcotest.(check int) "none under A=9" 0
    (List.length (R.Index.lookup_key idx [| R.Value.Int 9 |]));
  (* lookup_key probes with a caller-owned buffer; reusing the buffer
     across probes must not corrupt earlier answers (the index does not
     retain the key) *)
  let buf = [| R.Value.Int 1 |] in
  let under_1 = R.Index.lookup_key idx buf in
  buf.(0) <- R.Value.Int 2;
  let under_2 = R.Index.lookup_key idx buf in
  check_tuples "lookup_key A=1" [ int_tuple [ 1; 1 ]; int_tuple [ 1; 2 ] ]
    under_1;
  check_tuples "lookup_key A=2 after buffer reuse" [ int_tuple [ 2; 2 ] ]
    under_2

let test_scan_memoized () =
  let rel =
    R.Relation.of_list (int_schema "T" [ "A"; "B" ])
      [ int_tuple [ 2; 2 ]; int_tuple [ 1; 1 ]; int_tuple [ 1; 2 ] ]
  in
  let a1 = R.Relation.scan rel in
  Alcotest.(check int) "full extent" 3 (Array.length a1);
  Alcotest.(check tuple_t) "ascending order" (int_tuple [ 1; 1 ]) a1.(0);
  Alcotest.(check bool) "second scan reuses the array" true
    (R.Relation.scan rel == a1);
  (* deriving a new relation value must not inherit the cache *)
  let rel' = R.Relation.insert rel (int_tuple [ 0; 0 ]) in
  let a2 = R.Relation.scan rel' in
  Alcotest.(check int) "derived extent" 4 (Array.length a2);
  Alcotest.(check bool) "derived value has its own array" true (not (a2 == a1));
  Alcotest.(check int) "original untouched" 3
    (Array.length (R.Relation.scan rel));
  let rel'' =
    R.Relation.of_list (R.Relation.schema rel')
      (List.filter (fun t -> R.Tuple.get t 0 = R.Value.Int 1) (R.Relation.tuples rel'))
  in
  Alcotest.(check int) "filter rescans" 2
    (Array.length (R.Relation.scan rel''))

let test_database_ops () =
  let db = rs_db () in
  Alcotest.(check (list string)) "relations" [ "R"; "S" ]
    (R.Database.relation_names db);
  Alcotest.(check int) "total" 5 (R.Database.total_tuples db);
  Alcotest.(check bool) "mem" true (R.Database.mem_relation db "R");
  let db' = R.Database.delete db "R" (int_tuple [ 1; 2 ]) in
  Alcotest.(check int) "after delete" 4 (R.Database.total_tuples db');
  Alcotest.(check bool) "original untouched (persistent)" true
    (R.Database.total_tuples db = 5)

let test_database_errors () =
  let db = rs_db () in
  Alcotest.(check bool) "unknown relation raises Not_found" true
    (try
       ignore (R.Database.insert db "Nope" (int_tuple [ 1 ]));
       false
     with Not_found -> true);
  Alcotest.(check bool) "duplicate create rejected" true
    (try
       ignore
         (R.Database.create_relation db (int_schema "R" [ "A"; "B" ]));
       false
     with Invalid_argument _ -> true)

let test_database_equal () =
  let db1 = rs_db () and db2 = rs_db () in
  Alcotest.(check bool) "equal" true (R.Database.equal db1 db2);
  let db3 = R.Database.insert db2 "R" (int_tuple [ 9; 9 ]) in
  Alcotest.(check bool) "not equal" false (R.Database.equal db1 db3)

let prop_insert_mem =
  qtest "insert then mem"
    QCheck.(list_of_size (Gen.int_range 0 10) (pair small_signed_int small_signed_int))
    (fun pairs ->
      let rel =
        R.Relation.of_list (int_schema "T" [ "A"; "B" ])
          (List.map (fun (a, b) -> int_tuple [ a; b ]) pairs)
      in
      List.for_all (fun (a, b) -> R.Relation.mem rel (int_tuple [ a; b ])) pairs)

let prop_diff_apply =
  qtest "diff reconstructs the target"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 8) small_nat)
        (list_of_size (Gen.int_range 0 8) small_nat))
    (fun (xs, ys) ->
      let s = int_schema "T" [ "A" ] in
      let old_r = R.Relation.of_list s (List.map (fun x -> int_tuple [ x ]) xs) in
      let new_r = R.Relation.of_list s (List.map (fun y -> int_tuple [ y ]) ys) in
      let ins, del = R.Relation.diff old_r new_r in
      let rebuilt =
        R.Relation.insert_list
          (List.fold_left R.Relation.delete old_r del)
          ins
      in
      R.Relation.equal rebuilt new_r)

(* Rows over a typed schema with duplicates, equal-comparing floats of
   different bits, sometimes given sorted (the bulk path that sorts
   nothing) and sometimes holding a row the schema refuses. *)
let bulk_schema =
  R.Schema.make "B"
    [ R.Schema.attr ~ty:R.Value.TInt "A"; R.Schema.attr ~ty:R.Value.TFloat "F" ]

let gen_bulk_rows =
  QCheck.Gen.(
    let value =
      oneofl R.Value.[ Float 0.0; Float (-0.0); Float 1.5; Null ]
    in
    let row = map2 (fun a f -> [| R.Value.Int a; f |]) (int_bound 4) value in
    let bad = return [| R.Value.Str "x"; R.Value.Float 0.0 |] in
    list_size (int_range 0 25) (frequency [ (30, row); (1, bad) ])
    >>= fun rows ->
    oneofl [ `As_drawn; `Sorted; `Sorted_desc ] >|= function
    | `As_drawn -> rows
    | `Sorted -> List.stable_sort R.Tuple.compare rows
    | `Sorted_desc -> List.rev (List.stable_sort R.Tuple.compare rows))

let prop_of_list_is_insert_fold =
  let print rows = String.concat " " (List.map R.Tuple.to_string rows) in
  qtest "of_list = insert fold" (QCheck.make ~print gen_bulk_rows) (fun rows ->
      let build f = try Ok (f ()) with Invalid_argument _ -> Error () in
      match
        ( build (fun () -> R.Relation.of_list bulk_schema rows),
          build (fun () -> R.Relation.insert_list (R.Relation.empty bulk_schema) rows) )
      with
      | Ok bulk, Ok folded -> same_stored bulk folded
      | Error (), Error () -> true
      | _ -> false)

(* The relation layer's own balanced tree against the standard
   library's sets, over random adds and removes. *)
module Model = Set.Make (R.Tuple)

let prop_tuple_set_is_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (pair bool (map (fun i -> int_tuple [ i / 3; i mod 3 ]) (int_bound 30))))
  in
  let print ops =
    String.concat " "
      (List.map (fun (add, t) -> (if add then "+" else "-") ^ R.Tuple.to_string t) ops)
  in
  qtest "tuple sets = standard sets" (QCheck.make ~print gen) (fun ops ->
      let step (s, m) (add, t) =
        if add then (R.Tuple.Set.add t s, Model.add t m)
        else (R.Tuple.Set.remove t s, Model.remove t m)
      in
      let half = List.filteri (fun i _ -> i mod 2 = 0) ops in
      let s, m = List.fold_left step (R.Tuple.Set.empty, Model.empty) ops in
      let s', m' = List.fold_left step (s, m) half in
      let probe = int_tuple [ 5; 1 ] in
      let sorted = Array.of_list (Model.elements m) in
      List.equal R.Tuple.equal (R.Tuple.Set.elements s) (Model.elements m)
      && R.Tuple.Set.cardinal s = Model.cardinal m
      && List.for_all
           (fun i ->
             let t = int_tuple [ i / 3; i mod 3 ] in
             R.Tuple.Set.mem t s = Model.mem t m
             && Option.equal R.Tuple.equal (R.Tuple.Set.find_opt t s)
                  (Model.find_opt t m))
           (List.init 31 Fun.id)
      && List.equal R.Tuple.equal
           (List.of_seq (R.Tuple.Set.to_seq_from probe s))
           (List.of_seq (Model.to_seq_from probe m))
      && R.Tuple.Set.fold (fun t n -> t :: n) s []
         = Model.fold (fun t n -> t :: n) m []
      && List.equal R.Tuple.equal
           (R.Tuple.Set.elements_diff s s')
           (Model.elements (Model.diff m m'))
      && List.equal R.Tuple.equal
           (R.Tuple.Set.elements_diff s' s)
           (Model.elements (Model.diff m' m))
      && R.Tuple.Set.equal s s' = Model.equal m m'
      && List.equal R.Tuple.equal
           (R.Tuple.Set.elements (R.Tuple.Set.of_sorted sorted (Array.length sorted)))
           (Model.elements m))

let suite =
  [
    Alcotest.test_case "insert/delete set semantics" `Quick test_insert_delete;
    Alcotest.test_case "nonconforming rejected" `Quick test_nonconforming_rejected;
    Alcotest.test_case "distinct_count" `Quick test_distinct_count;
    Alcotest.test_case "diff" `Quick test_diff;
    Alcotest.test_case "hash index" `Quick test_index;
    Alcotest.test_case "scan memoization" `Quick test_scan_memoized;
    Alcotest.test_case "database ops" `Quick test_database_ops;
    Alcotest.test_case "database errors" `Quick test_database_errors;
    Alcotest.test_case "database equality" `Quick test_database_equal;
    prop_insert_mem;
    prop_diff_apply;
    prop_of_list_is_insert_fold;
    prop_tuple_set_is_model;
  ]
