open Testutil
module SC = Dc_cq.Schema_check
module C = Dc_citation

let db = rs_db ()

let test_valid () =
  Alcotest.(check int) "no problems" 0
    (List.length (SC.check_query db (parse "Q(X) :- R(X,Y), S(Y,Z)")))

let test_unknown_relation () =
  match SC.check_query db (parse "Q(X) :- Nope(X)") with
  | [ SC.Unknown_relation "Nope" ] -> ()
  | ps ->
      Alcotest.failf "unexpected: %s"
        (String.concat ";" (List.map SC.problem_to_string ps))

let test_arity () =
  match SC.check_query db (parse "Q(X) :- R(X)") with
  | [ SC.Arity_mismatch { pred = "R"; expected = 2; actual = 1 } ] -> ()
  | ps ->
      Alcotest.failf "unexpected: %s"
        (String.concat ";" (List.map SC.problem_to_string ps))

let test_type_mismatch () =
  (* R's columns are ints; a string constant cannot fit *)
  match SC.check_query db (parse "Q(X) :- R(X,\"oops\")") with
  | [ SC.Type_mismatch { pred = "R"; position = 1; _ } ] -> ()
  | ps ->
      Alcotest.failf "unexpected: %s"
        (String.concat ";" (List.map SC.problem_to_string ps))

let test_truth_atom_skipped () =
  Alcotest.(check int) "True is fine" 0
    (List.length (SC.check_query db (parse "Q(D) :- D=\"x\"")))

let test_multiple_problems_reported () =
  let ps = SC.check_query db (parse "Q(X) :- Nope(X), R(X), S(X,3)") in
  Alcotest.(check int) "three problems" 3 (List.length ps);
  Alcotest.(check bool) "res is error" true
    (Result.is_error (SC.check_query_res db (parse "Q(X) :- Nope(X)")))

let test_engine_rejects_bad_view () =
  let bad_view =
    C.Citation_view.make_exn
      ~view:(parse "V(X) :- Family(X)")
      (* wrong arity *)
      ~citations:[ parse "CVb(D) :- D=\"x\"" ]
      ()
  in
  Alcotest.(check bool) "create rejects arity" true
    (try
       ignore (C.Engine.create (paper_db ()) [ bad_view ]);
       false
     with Invalid_argument _ -> true);
  let bad_citation =
    C.Citation_view.make_exn
      ~view:(parse "V(X,Y,Z) :- Family(X,Y,Z)")
      ~citations:[ parse "CVc(P) :- Persons(P)" ]
      (* unknown relation *)
      ()
  in
  Alcotest.(check bool) "create rejects citation query" true
    (try
       ignore (C.Engine.create (paper_db ()) [ bad_citation ]);
       false
     with Invalid_argument _ -> true)

let test_page_html () =
  let engine = C.Engine.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  match C.Page.render engine ~view:"V1" ~params:[ ("FID", int 11) ] with
  | Error e -> Alcotest.fail e
  | Ok page ->
      let html = Dc_repro.Portal.to_html page in
      let contains needle =
        let nl = String.length needle and hl = String.length html in
        let rec go i =
          i + nl <= hl && (String.sub html i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "table" true (contains "<table>");
      Alcotest.(check bool) "cite block" true (contains "Cite as");
      Alcotest.(check bool) "escaped" true (not (contains "<script"))

(* Robustness: the parser returns Error (never raises) on arbitrary
   printable input. *)
let printable =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 40)
    (QCheck.Gen.map Char.chr (QCheck.Gen.int_range 32 126))

let prop_parser_total =
  qtest "parser is total on printable strings" printable (fun s ->
      match Dc_cq.Parser.parse_query s with Ok _ | Error _ -> true)

let prop_sql_total =
  qtest "SQL compiler is total on printable strings" printable (fun s ->
      match Dc_cq.Sql.compile ~schemas:Dc_gtopdb.Schema_def.all_schemas s with
      | Ok _ | Error _ -> true)

let suite =
  [
    Alcotest.test_case "valid query" `Quick test_valid;
    Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
    Alcotest.test_case "arity mismatch" `Quick test_arity;
    Alcotest.test_case "type mismatch" `Quick test_type_mismatch;
    Alcotest.test_case "truth atom skipped" `Quick test_truth_atom_skipped;
    Alcotest.test_case "multiple problems" `Quick test_multiple_problems_reported;
    Alcotest.test_case "engine rejects bad views" `Quick test_engine_rejects_bad_view;
    Alcotest.test_case "page html" `Quick test_page_html;
    prop_parser_total;
    prop_sql_total;
  ]
