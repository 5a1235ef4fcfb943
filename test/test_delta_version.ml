open Testutil
module R = Dc_relational
module D = Dc_relational.Delta
module VS = Dc_relational.Version_store

let test_apply () =
  let db = rs_db () in
  let delta =
    D.empty
    |> (fun d -> D.insert d "R" (int_tuple [ 7; 8 ]))
    |> fun d -> D.delete d "R" (int_tuple [ 1; 2 ])
  in
  let db' = D.apply db delta in
  let r = R.Database.relation_exn db' "R" in
  Alcotest.(check bool) "inserted" true (R.Relation.mem r (int_tuple [ 7; 8 ]));
  Alcotest.(check bool) "deleted" false (R.Relation.mem r (int_tuple [ 1; 2 ]));
  Alcotest.(check int) "delta size" 2 (D.size delta)

let test_between () =
  let old_db = rs_db () in
  let new_db =
    R.Database.insert (R.Database.delete old_db "S" (tuple [ int 2; str "a" ]))
      "R" (int_tuple [ 5; 5 ])
  in
  let delta = D.between old_db new_db in
  Alcotest.(check bool) "applying reproduces" true
    (R.Database.equal (D.apply old_db delta) new_db);
  check_tuples "R inserted" [ int_tuple [ 5; 5 ] ] (D.inserted delta "R");
  check_tuples "S deleted" [ tuple [ int 2; str "a" ] ] (D.deleted delta "S")

let test_union_order () =
  (* The same tuple inserted then deleted nets out to absent. *)
  let d1 = D.insert D.empty "R" (int_tuple [ 9; 9 ]) in
  let d2 = D.delete D.empty "R" (int_tuple [ 9; 9 ]) in
  let db' = D.apply (rs_db ()) (D.union d1 d2) in
  Alcotest.(check bool) "net absent" false
    (R.Relation.mem (R.Database.relation_exn db' "R") (int_tuple [ 9; 9 ]))

(* Building a delta is linear in its changes: a 100k-change delta
   renders and parses back, in order, well inside the test timeout. *)
let test_large_delta_roundtrip () =
  let n = 100_000 in
  let d =
    List.fold_left
      (fun d i ->
        if i mod 3 = 0 then D.delete d "S" (tuple [ int i; str "s" ])
        else D.insert d "R" (int_tuple [ i; i ]))
      D.empty
      (List.init n Fun.id)
  in
  Alcotest.(check int) "size" n (D.size d);
  match R.Delta_wire.parse (R.Delta_wire.render d) with
  | Error e -> Alcotest.fail e
  | Ok d' ->
      Alcotest.(check int) "parsed size" n (D.size d');
      Alcotest.(check bool) "same changes, same order" true
        (D.changes d' = D.changes d)

let test_net () =
  let before = rs_db () in
  let d =
    D.empty
    |> (fun d -> D.insert d "R" (int_tuple [ 7; 7 ]))
    |> (fun d -> D.insert d "R" (int_tuple [ 8; 8 ]))
    |> (fun d -> D.delete d "R" (int_tuple [ 8; 8 ]))
    |> (fun d -> D.delete d "R" (int_tuple [ 1; 2 ]))
    |> fun d -> D.insert d "R" (int_tuple [ 1; 2 ])
  in
  let after = D.apply before d in
  let net = D.net ~before ~after d in
  check_tuples "net insert" [ int_tuple [ 7; 7 ] ] (D.inserted net "R");
  check_tuples "no net delete" [] (D.deleted net "R")

let test_missing_relation () =
  let d = D.insert D.empty "Nope" (int_tuple [ 1 ]) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (D.apply (rs_db ()) d);
       false
     with Not_found -> true)

let test_store_basics () =
  let store = VS.create (rs_db ()) in
  Alcotest.(check int) "head 0" 0 (VS.head store);
  let store, v1 =
    VS.commit_delta store (D.insert D.empty "R" (int_tuple [ 10; 10 ]))
  in
  Alcotest.(check int) "head 1" 1 v1;
  let db0 = VS.checkout_exn store 0 in
  let db1 = VS.checkout_exn store 1 in
  Alcotest.(check bool) "v0 without" false
    (R.Relation.mem (R.Database.relation_exn db0 "R") (int_tuple [ 10; 10 ]));
  Alcotest.(check bool) "v1 with" true
    (R.Relation.mem (R.Database.relation_exn db1 "R") (int_tuple [ 10; 10 ]));
  Alcotest.(check (list int)) "versions" [ 0; 1 ] (VS.versions store);
  Alcotest.(check bool) "missing version" true (VS.checkout store 99 = None)

let test_version_at () =
  (* default deterministic clock: version i committed at time i+1 *)
  let store = VS.create (rs_db ()) in
  let store, _ = VS.commit store (rs_db ()) in
  let store, _ = VS.commit store (rs_db ()) in
  Alcotest.(check (option int)) "time 1 -> v0" (Some 0) (VS.version_at store 1);
  Alcotest.(check (option int)) "time 2 -> v1" (Some 1) (VS.version_at store 2);
  Alcotest.(check (option int)) "time 99 -> v2" (Some 2) (VS.version_at store 99);
  Alcotest.(check (option int)) "time 0 -> none" None (VS.version_at store 0)

let test_delta_between_versions () =
  let store = VS.create (rs_db ()) in
  let store, v1 =
    VS.commit_delta store (D.insert D.empty "R" (int_tuple [ 42; 42 ]))
  in
  match VS.delta_between store 0 v1 with
  | None -> Alcotest.fail "expected delta"
  | Some d ->
      check_tuples "insert recorded" [ int_tuple [ 42; 42 ] ] (D.inserted d "R")

let test_recorded_changes () =
  let d1 = D.insert D.empty "R" (int_tuple [ 42; 42 ]) in
  let d2 = D.delete D.empty "R" (int_tuple [ 1; 2 ]) in
  let store, _ = VS.commit_delta (VS.create (rs_db ())) d1 in
  let store, v2 = VS.commit_delta store d2 in
  let between v1 v2 = Option.get (VS.delta_between store v1 v2) in
  Alcotest.(check bool) "the commit deltas in order" true
    (D.changes (between 0 v2) = D.changes (D.union d1 d2));
  Alcotest.(check bool) "none between a version and itself" true
    (D.changes (between 1 1) = []);
  Alcotest.(check bool) "backwards: a diff" true
    (R.Database.equal
       (D.apply (VS.checkout_exn store 2) (between 2 0))
       (VS.checkout_exn store 0));
  let store, v3 = VS.commit store (rs_db ()) in
  Alcotest.(check bool) "a commit without its delta: a diff" true
    (R.Database.equal
       (D.apply (VS.checkout_exn store 0)
          (Option.get (VS.delta_between store 0 v3)))
       (VS.checkout_exn store v3))

let test_structural_sharing_cheap () =
  (* 200 commits of single-tuple deltas should be quick and all
     checkoutable; this is the fixity substrate's core property. *)
  let store = ref (VS.create (rs_db ())) in
  for i = 0 to 199 do
    let s, _ =
      VS.commit_delta !store (D.insert D.empty "R" (int_tuple [ 100 + i; i ]))
    in
    store := s
  done;
  Alcotest.(check int) "head" 200 (VS.head !store);
  let db50 = VS.checkout_exn !store 50 in
  Alcotest.(check int) "intermediate size" (3 + 50)
    (R.Relation.cardinality (R.Database.relation_exn db50 "R"))

let prop_between_apply =
  qtest "between/apply inverse"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 6) (pair small_nat small_nat))
        (list_of_size (Gen.int_range 0 6) (pair small_nat small_nat)))
    (fun (add, remove) ->
      let db = rs_db () in
      let db' =
        List.fold_left
          (fun db (a, b) -> R.Database.insert db "R" (int_tuple [ a; b ]))
          db add
      in
      let db' =
        List.fold_left
          (fun db (a, b) -> R.Database.delete db "R" (int_tuple [ a; b ]))
          db' remove
      in
      R.Database.equal (D.apply db (D.between db db')) db')

let suite =
  [
    Alcotest.test_case "delta apply" `Quick test_apply;
    Alcotest.test_case "delta between" `Quick test_between;
    Alcotest.test_case "delta union order" `Quick test_union_order;
    Alcotest.test_case "missing relation raises" `Quick test_missing_relation;
    Alcotest.test_case "store basics" `Quick test_store_basics;
    Alcotest.test_case "version_at" `Quick test_version_at;
    Alcotest.test_case "delta between versions" `Quick test_delta_between_versions;
    Alcotest.test_case "recorded deltas between versions" `Quick
      test_recorded_changes;
    Alcotest.test_case "100k-change delta round-trips" `Quick
      test_large_delta_roundtrip;
    Alcotest.test_case "net change of a delta" `Quick test_net;
    Alcotest.test_case "many commits stay cheap" `Quick test_structural_sharing_cheap;
    prop_between_apply;
  ]
