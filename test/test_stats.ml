open Testutil
module R = Dc_relational
module S = Dc_relational.Stats

(* The standard library's sets model extents, independently of the
   relation layer's own tree. *)
module Model = Set.Make (R.Tuple)

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
   that carries them across the tuple, and the old snapshot keeps its
   own counts. *)
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
      Model.cardinal
        (Model.of_list
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

(* Counts carried across insert/delete against counts taken afresh.
   The values include ones [Value.compare] equates although their bits
   differ ([0.0]/[-0.0], NaNs) and ones it keeps apart although they
   print alike ([Int 1], [Float 1.0], [Str "1"]); the stream re-inserts
   present tuples and deletes absent ones. *)
let carried_pool =
  R.Value.
    [|
      Int 0; Int 1; Float 1.0; Str "1"; Float 0.0; Float (-0.0); Float Float.nan;
      Null; Str "a";
    |]

let carried_schemas =
  [
    R.Schema.make "T" (List.map R.Schema.attr [ "A"; "B"; "C" ]);
    R.Schema.make "U" (List.map R.Schema.attr [ "A"; "B" ]);
  ]

let carried_stream seed =
  let rng = Random.State.make [| seed |] in
  let value () =
    carried_pool.(Random.State.int rng (Array.length carried_pool))
  in
  let draw schema =
    R.Tuple.of_array (Array.init (R.Schema.arity schema) (fun _ -> value ()))
  in
  (* one relation per schema, carried, next to the model of its extent *)
  let start schema =
    let model =
      Model.of_list (List.init (Random.State.int rng 12) (fun _ -> draw schema))
    in
    let rel = R.Relation.of_list schema (Model.elements model) in
    for c = 0 to R.Schema.arity schema - 1 do
      if Random.State.bool rng then ignore (R.Relation.distinct rel c)
    done;
    (rel, model)
  in
  let rels = Array.of_list (List.map start carried_schemas) in
  let fail step fmt =
    Format.kasprintf (fun s -> QCheck.Test.fail_reportf "step %d: %s" step s) fmt
  in
  let check step (rel, model) =
    let schema = R.Relation.schema rel in
    let rebuilt = R.Relation.of_list schema (Model.elements model) in
    if not (R.Relation.equal rel rebuilt) then
      fail step "%s: extent differs from the model" (R.Relation.name rel);
    for c = 0 to R.Schema.arity schema - 1 do
      let column = List.map (fun t -> t.(c)) (Model.elements model) in
      let want = List.length (List.sort_uniq R.Value.compare column) in
      let carried = R.Relation.distinct rel c
      and fresh = R.Relation.distinct rebuilt c in
      if carried <> want || fresh <> want then
        fail step "%s column %d: carried %d, rebuilt %d, model %d"
          (R.Relation.name rel) c carried fresh want
    done;
    rebuilt
  in
  let databases rels =
    List.fold_left R.Database.add_relation R.Database.empty rels
  in
  let atom () =
    let schema = List.nth carried_schemas (Random.State.int rng 2) in
    Cq.Atom.make (R.Schema.name schema)
      (List.init (R.Schema.arity schema) (fun _ ->
           if Random.State.int rng 4 = 0 then Cq.Term.Const (value ())
           else Cq.Term.Var [| "X"; "Y"; "Z" |].(Random.State.int rng 3)))
  in
  let order db q =
    Cq.Plan.atom_order
      (Cq.Plan.compile
         ~relation:(R.Database.relation_exn db)
         ~index:(fun p positions ->
           R.Index.build (R.Database.relation_exn db p) positions)
         db q)
  in
  for step = 1 to 40 do
    let i = Random.State.int rng (Array.length rels) in
    let rel, model = rels.(i) in
    let present () =
      match Model.elements model with
      | [] -> draw (R.Relation.schema rel)
      | ts -> List.nth ts (Random.State.int rng (List.length ts))
    in
    rels.(i) <-
      (match Random.State.int rng 4 with
      | 0 | 1 ->
          let t =
            if Random.State.int rng 4 = 0 then present ()
            else draw (R.Relation.schema rel)
          in
          (R.Relation.insert rel t, Model.add t model)
      | _ ->
          let t =
            if Random.State.int rng 4 = 0 then draw (R.Relation.schema rel)
            else present ()
          in
          (R.Relation.delete rel t, Model.remove t model));
    let rebuilt = databases (Array.to_list (Array.map (check step) rels)) in
    let carried = databases (Array.to_list (Array.map fst rels)) in
    let body = List.init (2 + Random.State.int rng 2) (fun _ -> atom ()) in
    let q = Cq.Query.make_exn ~name:"Q" ~head:[] ~body () in
    let a = order carried q and b = order rebuilt q in
    if a <> b then
      fail step "%a: join order %s on the carried database, %s rebuilt"
        Cq.Query.pp q (String.concat "," a) (String.concat "," b)
  done;
  true

let test_carried_counts =
  qtest "carried counts = rebuilt counts, same join order"
    QCheck.(int_bound 100_000)
    carried_stream

let suite =
  [
    Alcotest.test_case "cardinality/distinct" `Quick test_cardinality_and_distinct;
    Alcotest.test_case "self-validation" `Quick test_self_validation;
    Alcotest.test_case "selectivity/join" `Quick test_selectivity_and_join;
    Alcotest.test_case "cost uses stats" `Quick test_cost_uses_stats;
    Alcotest.test_case "domains first-count one relation together" `Quick
      test_domains_count_together;
    test_carried_counts;
  ]
