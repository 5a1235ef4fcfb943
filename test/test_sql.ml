open Testutil
module Cq = Dc_cq
module Sql = Dc_cq.Sql

let schemas = Dc_gtopdb.Schema_def.all_schemas

let compile sql =
  match Sql.compile ~schemas sql with
  | Ok q -> q
  | Error e -> Alcotest.failf "unexpected SQL error on %S: %s" sql e

let err sql =
  match Sql.compile ~schemas sql with
  | Ok q -> Alcotest.failf "expected error on %S, got %s" sql (Cq.Query.to_string q)
  | Error e -> e

let test_simple_select () =
  let q = compile "SELECT f.FName FROM Family f" in
  Alcotest.(check int) "one atom" 1 (List.length (Cq.Query.body q));
  Alcotest.(check (list string)) "head named after column" [ "FName" ]
    (Cq.Query.head_vars q)

let test_join_is_paper_query () =
  let q =
    compile
      "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID"
  in
  Alcotest.(check bool) "equivalent to the paper's Q" true
    (Cq.Containment.equivalent q Dc_gtopdb.Paper_views.query_q)

let test_constant_condition () =
  let q = compile "SELECT f.FName FROM Family f WHERE f.FID = 11" in
  let consts = List.concat_map Cq.Atom.constants (Cq.Query.body q) in
  Alcotest.(check bool) "constant 11 in body" true
    (List.mem (Dc_relational.Value.Int 11) consts);
  (* string literals, either quoting style *)
  let q2 = compile "SELECT f.FID FROM Family f WHERE f.FName = 'Calcitonin'" in
  let q3 =
    compile "SELECT f.FID FROM Family f WHERE f.FName = \"Calcitonin\""
  in
  Alcotest.(check bool) "same query both quotings" true
    (Cq.Containment.equivalent q2 q3)

let test_self_join () =
  (* families sharing a name, different ids *)
  let q =
    compile
      "SELECT a.FID, b.FID FROM Family a, Family b WHERE a.FName = b.FName"
  in
  Alcotest.(check int) "two atoms" 2 (List.length (Cq.Query.body q));
  let results = eval_tuples (paper_db ()) q in
  (* pairs over {11,12} plus reflexive pairs of all 4 families *)
  Alcotest.(check int) "4 reflexive + 2 calcitonin cross" 6
    (List.length results)

let test_as_renaming () =
  let q = compile "SELECT f.FName AS Name FROM Family f" in
  Alcotest.(check (list string)) "renamed" [ "Name" ] (Cq.Query.head_vars q)

let test_evaluation_matches_datalog () =
  let sql =
    compile
      "SELECT f.FName, c.PName FROM Family f, Committee c WHERE f.FID = c.FID"
  in
  let datalog =
    parse "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)"
  in
  let db = paper_db () in
  Alcotest.(check (list tuple_t)) "same results"
    (List.sort Dc_relational.Tuple.compare (eval_tuples db datalog))
    (List.sort Dc_relational.Tuple.compare (eval_tuples db sql))

let test_citation_via_sql () =
  (* the whole pipeline accepts SQL-compiled queries *)
  let q =
    compile
      "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID"
  in
  let engine =
    Dc_citation.Engine.create (paper_db ()) Dc_gtopdb.Paper_views.all
  in
  let result = Dc_citation.Engine.cite engine q in
  Alcotest.(check int) "two rewritings" 2 (List.length result.rewritings)

let test_errors () =
  ignore (err "SELECT FROM Family f");
  ignore (err "SELECT f.FName FROM Family");
  (* missing alias *)
  ignore (err "SELECT f.FName FROM Nope f");
  ignore (err "SELECT f.Wrong FROM Family f");
  ignore (err "SELECT f.FName FROM Family f WHERE f.FID = x.FID");
  ignore (err "SELECT f.FName FROM Family f, Family f");
  (* dup alias *)
  ignore (err "SELECT f.FName FROM Family f WHERE f.FID < 3");
  ignore (err "SELECT f.FName FROM Family f WHERE f.FID = 'a' AND f.FID = 'b'");
  ignore (err "SELECT FName FROM Family f")

let suite =
  [
    Alcotest.test_case "simple select" `Quick test_simple_select;
    Alcotest.test_case "join = paper query" `Quick test_join_is_paper_query;
    Alcotest.test_case "constant conditions" `Quick test_constant_condition;
    Alcotest.test_case "self join" `Quick test_self_join;
    Alcotest.test_case "AS renaming" `Quick test_as_renaming;
    Alcotest.test_case "matches datalog eval" `Quick test_evaluation_matches_datalog;
    Alcotest.test_case "citation via SQL" `Quick test_citation_via_sql;
    Alcotest.test_case "errors" `Quick test_errors;
  ]

(* The inverse direction, a conjunctive query rendered as
   SELECT-FROM-WHERE: the round-trip input for [compile].  Fails on
   queries outside the surface fragment: constants in the head, the
   nullary [True] atom, or predicates missing from [schemas]. *)
let decompile ~schemas q =
  let ( let* ) = Result.bind in
  let schema_of rel =
    match
      List.find_opt (fun s -> String.equal (R.Schema.name s) rel) schemas
    with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown relation %s" rel)
  in
  let alias i = Printf.sprintf "t%d" i in
  (* first variable occurrences, plus the conditions the body implies *)
  let* _, first_occurrence, conditions =
    List.fold_left
      (fun acc atom ->
        let* i, first, conds = acc in
        if Cq.Atom.pred atom = "True" && Cq.Atom.args atom = [] then
          Error "the nullary True atom has no SQL counterpart"
        else
          let* schema = schema_of (Cq.Atom.pred atom) in
          if R.Schema.arity schema <> Cq.Atom.arity atom then
            Error (Printf.sprintf "arity mismatch on %s" (Cq.Atom.pred atom))
          else
            let* first, conds =
              List.fold_left
                (fun acc (j, term) ->
                  let* first, conds = acc in
                  let here =
                    Printf.sprintf "%s.%s" (alias i)
                      (List.nth (R.Schema.attributes schema) j).name
                  in
                  match term with
                  | Cq.Term.Const c ->
                      let lit =
                        match c with
                        | R.Value.Int n -> string_of_int n
                        | R.Value.Float f -> Printf.sprintf "%g" f
                        | v -> Printf.sprintf "'%s'" (R.Value.to_string v)
                      in
                      Ok (first, conds @ [ Printf.sprintf "%s = %s" here lit ])
                  | Cq.Term.Var v -> (
                      match List.assoc_opt v first with
                      | None -> Ok (first @ [ (v, here) ], conds)
                      | Some there ->
                          Ok
                            (first, conds @ [ Printf.sprintf "%s = %s" there here ])))
                (Ok (first, conds))
                (List.mapi (fun j t -> (j, t)) (Cq.Atom.args atom))
            in
            Ok (i + 1, first, conds))
      (Ok (0, [], []))
      (Cq.Query.body q)
  in
  let* selects =
    List.fold_left
      (fun acc term ->
        let* acc = acc in
        match term with
        | Cq.Term.Const _ -> Error "constants in the head have no SQL counterpart"
        | Cq.Term.Var v -> (
            match List.assoc_opt v first_occurrence with
            | None -> Error (Printf.sprintf "unsafe head variable %s" v)
            | Some col ->
                let rendered =
                  (* keep the output name when it differs from the column *)
                  let base = List.nth (String.split_on_char '.' col) 1 in
                  if String.equal base v then col
                  else Printf.sprintf "%s AS %s" col v
                in
                Ok (acc @ [ rendered ])))
      (Ok []) (Cq.Query.head q)
  in
  let froms =
    List.mapi
      (fun i atom -> Printf.sprintf "%s %s" (Cq.Atom.pred atom) (alias i))
      (Cq.Query.body q)
  in
  let where =
    if conditions = [] then ""
    else " WHERE " ^ String.concat " AND " conditions
  in
  Ok
    (Printf.sprintf "SELECT %s FROM %s%s"
       (String.concat ", " selects)
       (String.concat ", " froms)
       where)

let test_decompile_roundtrip () =
  List.iter
    (fun src ->
      let q = parse src in
      match decompile ~schemas q with
      | Error e -> Alcotest.failf "decompile %s: %s" src e
      | Ok sql ->
          let q' = compile sql in
          Alcotest.(check bool)
            (Printf.sprintf "%s -> %s" src sql)
            true
            (Cq.Containment.equivalent q q'))
    [
      "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
      "Q(FID,FName) :- Family(FID,FName,Desc)";
      "Q(PName) :- Committee(FID,PName), Family(FID,FName,Desc)";
      "Q(FName) :- Family(FID,FName,\"C1\")";
      "Q(A,B) :- Family(A,N,D1), Family(B,N,D2)";
    ]

let test_decompile_rejects_out_of_fragment () =
  Alcotest.(check bool) "constant head" true
    (Result.is_error
       (decompile ~schemas (parse "Q(D) :- D=\"blurb\"")));
  Alcotest.(check bool) "unknown relation" true
    (Result.is_error (decompile ~schemas (parse "Q(X) :- Mystery(X)")))

let prop_workload_decompiles =
  Testutil.qtest "workload queries roundtrip through SQL"
    QCheck.(int_bound 500)
    (fun seed ->
      List.for_all
        (fun q ->
          match decompile ~schemas q with
          | Error _ -> true (* out of fragment is fine *)
          | Ok sql -> (
              match Sql.compile ~schemas sql with
              | Error _ -> false
              | Ok q' -> Cq.Containment.equivalent q q'))
        (Dc_repro.Workload.generate ~seed ~count:5))

let suite =
  suite
  @ [
      Alcotest.test_case "decompile roundtrip" `Quick test_decompile_roundtrip;
      Alcotest.test_case "decompile fragment limits" `Quick test_decompile_rejects_out_of_fragment;
      prop_workload_decompiles;
    ]
