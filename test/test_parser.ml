open Testutil
module Cq = Dc_cq
module P = Dc_cq.Parser

let ok src =
  match P.parse_query src with
  | Ok q -> q
  | Error e -> Alcotest.failf "unexpected parse error on %S: %s" src e

let err src =
  match P.parse_query src with
  | Ok q -> Alcotest.failf "expected error on %S, got %s" src (Cq.Query.to_string q)
  | Error e -> e

let test_simple () =
  let q = ok "Q(X,Y) :- R(X,Z), S(Z,Y)" in
  Alcotest.(check string) "name" "Q" (Cq.Query.name q);
  Alcotest.(check int) "arity" 2 (Cq.Query.arity q);
  Alcotest.(check int) "body size" 2 (List.length (Cq.Query.body q));
  Alcotest.(check (list string)) "head vars" [ "X"; "Y" ] (Cq.Query.head_vars q);
  Alcotest.(check (list string)) "existential" [ "Z" ]
    (Cq.Query.existential_vars q)

let test_lambda () =
  let q = ok "lambda FID. V1(FID,FName,Desc) :- Family(FID,FName,Desc)" in
  Alcotest.(check (list string)) "params" [ "FID" ] (Cq.Query.params q);
  Alcotest.(check (list int)) "param positions" [ 0 ] (Cq.Query.param_positions q);
  let q2 = ok "λX,Y. V(X,Y) :- R(X,Y)" in
  Alcotest.(check (list string)) "utf8 lambda" [ "X"; "Y" ] (Cq.Query.params q2)

let test_constants () =
  let q = ok "Q(X) :- R(X,3), S(X,\"abc\"), T(X,'def'), U(X,2.5)" in
  let consts = List.concat_map Cq.Atom.constants (Cq.Query.body q) in
  Alcotest.(check int) "four constants" 4 (List.length consts);
  Alcotest.(check bool) "negative int" true
    (List.exists
       (fun (a : Cq.Atom.t) -> Cq.Atom.constants a = [ Dc_relational.Value.Int (-5) ])
       (Cq.Query.body (ok "Q(X) :- R(X,-5)")))

let test_equality_elimination () =
  let q = ok "CV2(D) :- D=\"blurb\"" in
  Alcotest.(check int) "head all-const" 0 (List.length (Cq.Query.head_vars q));
  (match Cq.Query.head q with
  | [ Cq.Term.Const (Dc_relational.Value.Str "blurb") ] -> ()
  | _ -> Alcotest.fail "head should be the constant");
  (* equality with relational atoms substitutes through *)
  let q2 = ok "Q(X,Y) :- R(X,Y), Y=7" in
  Alcotest.(check bool) "Y replaced by 7" true
    (List.exists
       (fun (a : Cq.Atom.t) ->
         Cq.Atom.args a = [ Cq.Term.Var "X"; Cq.Term.Const (Dc_relational.Value.Int 7) ])
       (Cq.Query.body q2))

let test_comments_and_whitespace () =
  let q = ok "# leading comment\nQ(X) :- % another\n  R(X,Y)" in
  Alcotest.(check string) "parsed" "Q" (Cq.Query.name q)

let test_errors () =
  ignore (err "Q(X) :- ");
  ignore (err "Q(X)");
  ignore (err "Q(X) :- R(X");
  ignore (err "Q(X) :- R(X,\"unterminated)");
  ignore (err "Q(X) :- R(Y,Y)");
  (* unsafe head *)
  ignore (err "lambda P. Q(X) :- R(X,P)");
  (* param not in head *)
  ignore (err "Q(X) :- R(X,Y) trailing")

let test_program () =
  let qs =
    Result.get_ok
      (P.parse_program "Q1(X) :- R(X,Y);\nQ2(Y) :- S(Y,Z);")
  in
  Alcotest.(check (list string)) "names" [ "Q1"; "Q2" ]
    (List.map Cq.Query.name qs);
  Alcotest.(check bool) "missing separator rejected" true
    (Result.is_error (P.parse_program "Q1(X) :- R(X,Y) Q2(Y) :- S(Y,Z)"))

let test_pp_reparse_roundtrip () =
  List.iter
    (fun src ->
      let q = ok src in
      let q' = ok (Cq.Query.to_string q) in
      Alcotest.(check query) ("roundtrip " ^ src) q q')
    [
      "Q(X,Y) :- R(X,Z), S(Z,Y)";
      "lambda FID. V1(FID,FName,Desc) :- Family(FID,FName,Desc)";
      "Q(X) :- R(X,3), S(X,\"a b c\")";
      "CV2(D) :- D=\"IUPHAR/BPS Guide...\"";
    ]

let prop_workload_roundtrip =
  qtest "generated workload queries roundtrip through pp"
    QCheck.(int_bound 1000)
    (fun seed ->
      List.for_all
        (fun q ->
          match P.parse_query (Cq.Query.to_string q) with
          | Ok q' -> Cq.Query.equal_syntactic q q'
          | Error _ -> false)
        (Dc_repro.Workload.generate ~seed ~count:5))

let suite =
  [
    Alcotest.test_case "simple query" `Quick test_simple;
    Alcotest.test_case "lambda parameters" `Quick test_lambda;
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "equality elimination" `Quick test_equality_elimination;
    Alcotest.test_case "comments/whitespace" `Quick test_comments_and_whitespace;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "programs" `Quick test_program;
    Alcotest.test_case "pp/reparse roundtrip" `Quick test_pp_reparse_roundtrip;
    prop_workload_roundtrip;
  ]
