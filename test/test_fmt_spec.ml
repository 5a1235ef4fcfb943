open Testutil
module C = Dc_citation
module F = Dc_citation.Fmt_citation
module Cit = Dc_citation.Citation

let sample_citation () =
  Cit.make ~view:"V1"
    ~params:[ ("FID", int 11) ]
    ~snippets:
      [
        C.Snippet.make ~source:"CV1" [ ("PName", str "Debbie Hay") ];
        C.Snippet.make ~source:"CV1" [ ("PName", str "David & \"Poyner\"") ];
      ]

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_format_of_string () =
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) name true (F.format_of_string name = Ok f))
    formats;
  Alcotest.(check bool) "unknown" true (Result.is_error (F.format_of_string "docx"))

let test_human () =
  let s = F.render_citation F.Human (sample_citation ()) in
  Alcotest.(check bool) "view" true (contains s "V1 [FID=11]");
  Alcotest.(check bool) "member" true (contains s "Debbie Hay")

let test_bibtex () =
  let s = F.render_citation F.Bibtex (sample_citation ()) in
  Alcotest.(check bool) "entry" true (contains s "@misc{V1_11,");
  Alcotest.(check bool) "param note" true (contains s "FID = 11")

let test_ris () =
  let s = F.render_citation F.Ris (sample_citation ()) in
  Alcotest.(check bool) "type line" true (contains s "TY  - DBASE");
  Alcotest.(check bool) "ends" true (contains s "ER  -")

let test_xml_escaping () =
  let s = F.render_citation F.Xml (sample_citation ()) in
  Alcotest.(check bool) "escaped amp" true (contains s "David &amp; &quot;Poyner&quot;");
  Alcotest.(check bool) "well-formed-ish" true (contains s "</citation>")

let test_json_escaping () =
  let s = F.render_citation F.Json (sample_citation ()) in
  Alcotest.(check bool) "escaped quote" true (contains s "David & \\\"Poyner\\\"");
  Alcotest.(check bool) "param as number" true (contains s "\"FID\": 11")

let test_render_result_wrapping () =
  let cs = [ sample_citation () ] in
  Alcotest.(check bool) "human carries query" true
    (contains (F.render_result F.Human ~query:"Q(X) :- R(X)" cs) "Q(X) :- R(X)");
  Alcotest.(check bool) "json wraps" true
    (contains (F.render_result F.Json ~query:"Q" cs) "\"citations\": [")

(* Spec parsing *)

let test_parse_views_spec () =
  let src =
    "# comment\n\
     view lambda FID. V1(FID,FName,Desc) :- Family(FID,FName,Desc);\n\
     cite lambda FID. CV1(FID,PName) :- Committee(FID,PName);\n\
     view V2(FID,FName,Desc) :- Family(FID,FName,Desc);\n\
     cite CV2(D) :- D=\"blurb\";\n"
  in
  match C.Spec.parse_views src with
  | Error e -> Alcotest.fail e
  | Ok views ->
      Alcotest.(check (list string)) "names" [ "V1"; "V2" ]
        (List.map C.Citation_view.name views)

let test_parse_views_errors () =
  Alcotest.(check bool) "cite before view" true
    (Result.is_error (C.Spec.parse_views "cite CV(D) :- D=\"x\";"));
  Alcotest.(check bool) "view without cite" true
    (Result.is_error (C.Spec.parse_views "view V(X) :- R(X,Y);"));
  Alcotest.(check bool) "unknown keyword" true
    (Result.is_error (C.Spec.parse_views "wibble V(X) :- R(X,Y);"))

let test_parse_schemas () =
  let src = "Family(FID:int*, FName:string, Desc:string)\nCommittee(FID:int*, PName:string*)\n" in
  match C.Spec.parse_schemas src with
  | Error e -> Alcotest.fail e
  | Ok [ fam; com ] ->
      Alcotest.(check string) "name" "Family" (Dc_relational.Schema.name fam);
      Alcotest.(check (list string)) "family key" [ "FID" ]
        (Dc_relational.Schema.key fam);
      Alcotest.(check (list string)) "committee key" [ "FID"; "PName" ]
        (Dc_relational.Schema.key com)
  | Ok _ -> Alcotest.fail "expected two schemas"

let test_load_database () =
  (* round-trip through a temp directory *)
  let dir = Filename.temp_file "datacite" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "schema.spec" "T(A:int*, B:string)\nEmptyRel(X:int)\n";
  write "T.csv" "A,B\n1,one\n2,two\n";
  (match C.Spec.load_database ~dir with
  | Error e -> Alcotest.fail e
  | Ok db ->
      Alcotest.(check int) "loaded rows" 2
        (Dc_relational.Relation.cardinality
           (Dc_relational.Database.relation_exn db "T"));
      Alcotest.(check int) "empty relation present" 0
        (Dc_relational.Relation.cardinality
           (Dc_relational.Database.relation_exn db "EmptyRel")));
  Sys.remove (Filename.concat dir "schema.spec");
  Sys.remove (Filename.concat dir "T.csv");
  Unix.rmdir dir

let test_load_database_missing () =
  Alcotest.(check bool) "missing dir" true
    (Result.is_error (C.Spec.load_database ~dir:"/nonexistent/path"))

let suite =
  [
    Alcotest.test_case "format names" `Quick test_format_of_string;
    Alcotest.test_case "human format" `Quick test_human;
    Alcotest.test_case "bibtex format" `Quick test_bibtex;
    Alcotest.test_case "ris format" `Quick test_ris;
    Alcotest.test_case "xml escaping" `Quick test_xml_escaping;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "render_result wrapping" `Quick test_render_result_wrapping;
    Alcotest.test_case "parse views spec" `Quick test_parse_views_spec;
    Alcotest.test_case "views spec errors" `Quick test_parse_views_errors;
    Alcotest.test_case "parse schemas" `Quick test_parse_schemas;
    Alcotest.test_case "load database" `Quick test_load_database;
    Alcotest.test_case "load database missing" `Quick test_load_database_missing;
  ]
