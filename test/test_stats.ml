open Testutil
module R = Dc_relational
module S = Dc_relational.Stats

let test_cardinality_and_distinct () =
  let db = rs_db () in
  Alcotest.(check int) "card R" 3 (S.cardinality db "R");
  Alcotest.(check int) "distinct R.0" 3 (S.distinct db "R" 0);
  Alcotest.(check int) "distinct R.1" 2 (S.distinct db "R" 1);
  Alcotest.(check int) "unknown relation" 0 (S.cardinality db "Nope");
  Alcotest.(check bool) "bad column" true
    (try
       ignore (S.distinct db "R" 9);
       false
     with Invalid_argument _ -> true)

(* Counts are owned by relation values: an insert makes a new value
   that counts afresh, and the old snapshot keeps its own counts. *)
let test_self_validation () =
  let db = rs_db () in
  Alcotest.(check int) "before" 2 (S.distinct db "R" 1);
  Alcotest.(check int) "card before" 3 (S.cardinality db "R");
  let db' = R.Database.insert db "R" (int_tuple [ 9; 9 ]) in
  Alcotest.(check int) "after insert" 3 (S.distinct db' "R" 1);
  Alcotest.(check int) "card after insert" 4 (S.cardinality db' "R");
  Alcotest.(check int) "old snapshot" 2 (S.distinct db "R" 1);
  Alcotest.(check int) "old snapshot card" 3 (S.cardinality db "R")

let test_selectivity_and_join () =
  let db = rs_db () in
  Alcotest.(check bool) "selectivity R.1 = 1/2" true
    (abs_float (S.selectivity db "R" 1 -. 0.5) < 1e-9);
  (* |R|*|S| / max(d_R.B, d_S.A) = 3*2/2 = 3 *)
  Alcotest.(check bool) "join estimate" true
    (abs_float (S.join_cardinality db ("R", 1) ("S", 0) -. 3.0) < 1e-9);
  Alcotest.(check bool) "empty relation selectivity 1" true
    (S.selectivity db "Nope" 0 = 1.0)

let test_cost_uses_stats () =
  (* the estimate reads the counts memoized on the relation values: a
     warm repeat and a database rebuilt from the same tuples (cold
     values) give the same size *)
  let db = paper_db () in
  let rebuilt =
    List.fold_left
      (fun acc rel ->
        R.Database.add_relation acc
          (R.Relation.of_list (R.Relation.schema rel) (R.Relation.tuples rel)))
      R.Database.empty (R.Database.relations db)
  in
  let views =
    Dc_rewriting.View.Set.of_list
      (List.map Dc_citation.Citation_view.view Dc_gtopdb.Paper_views.all)
  in
  let q1 = parse "Q1(FName) :- V1(FID,FName,Desc), V3(FID,Text)" in
  let size db = Dc_rewriting.Cost.citation_size db views q1 in
  let cold = size db in
  Alcotest.(check int) "warm repeat" cold (size db);
  Alcotest.(check int) "rebuilt database" cold (size rebuilt)

(* Four domains first-count one relation value at once: whichever write
   wins, every domain reads the counts an oracle computes with a set. *)
let test_domains_count_together () =
  let domains = 4 in
  let schema =
    R.Schema.make "T"
      (List.map (fun a -> R.Schema.attr ~ty:R.Value.TInt a) [ "A"; "B"; "C" ])
  in
  for round = 1 to 10 do
    let rel =
      R.Relation.of_list schema
        (List.init 5_000 (fun i ->
             int_tuple [ i; i mod (7 * round); (i * round) mod 1_001 ]))
    in
    let oracle col =
      R.Tuple.Set.cardinal
        (R.Tuple.Set.of_list
           (List.map (fun t -> R.Tuple.project t [ col ]) (R.Relation.tuples rel)))
    in
    let want = (5_000, List.init 3 oracle) in
    let ready = Atomic.make 0 in
    let got =
      List.init domains (fun i ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < domains do
                Domain.cpu_relax ()
              done;
              let cols = List.init 3 (fun k -> (k + i) mod 3) in
              let counts =
                List.map (fun c -> (c, R.Relation.distinct rel c)) cols
              in
              ( R.Relation.cardinality rel,
                List.map (fun c -> List.assoc c counts) [ 0; 1; 2 ] )))
      |> List.map Domain.join
    in
    List.iteri
      (fun i g ->
        if g <> want then
          Alcotest.failf "round %d, domain %d disagrees with the oracle" round i)
      got;
    Alcotest.(check bool) "later reads agree" true
      ((R.Relation.cardinality rel, List.init 3 (R.Relation.distinct rel)) = want)
  done

let suite =
  [
    Alcotest.test_case "cardinality/distinct" `Quick test_cardinality_and_distinct;
    Alcotest.test_case "self-validation" `Quick test_self_validation;
    Alcotest.test_case "selectivity/join" `Quick test_selectivity_and_join;
    Alcotest.test_case "cost uses stats" `Quick test_cost_uses_stats;
    Alcotest.test_case "domains first-count one relation together" `Quick
      test_domains_count_together;
  ]
