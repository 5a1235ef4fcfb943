open Testutil
module R = Dc_relational
module Csv = Dc_relational.Csv_io

let with_temp_file contents f =
  let path = Filename.temp_file "datacite" ".csv" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let of_string schema s = with_temp_file s (Csv.load_relation schema)

let to_string rel =
  with_temp_file "" (fun path ->
      Csv.save_relation rel path;
      Result.get_ok (Csv.read_file path))

let schema =
  R.Schema.make "T"
    [ R.Schema.attr ~ty:R.Value.TInt "A"; R.Schema.attr ~ty:R.Value.TStr "B" ]

let test_relation_roundtrip () =
  let rel =
    R.Relation.of_list schema
      [
        tuple [ int 1; str "hello" ];
        tuple [ int 2; str "with,comma" ];
        tuple [ int 3; str "" ];
      ]
  in
  let rel' = Result.get_ok (of_string schema (to_string rel)) in
  Alcotest.(check bool) "roundtrip equal" true (R.Relation.equal rel rel')

let test_header_optional () =
  let with_header = "A,B\n1,x\n" and without = "1,x\n" in
  let r1 = Result.get_ok (of_string schema with_header) in
  let r2 = Result.get_ok (of_string schema without) in
  Alcotest.(check bool) "same" true (R.Relation.equal r1 r2)

let test_type_errors_reported () =
  Alcotest.(check bool) "bad int" true
    (Result.is_error (of_string schema "notanint,x\n"));
  Alcotest.(check bool) "arity" true
    (Result.is_error (of_string schema "1,x,excess\n"));
  Alcotest.(check bool) "unterminated quote" true
    (Result.is_error (of_string schema "1,\"abc\n"))

let test_null_parsing () =
  let rel = Result.get_ok (of_string schema "NULL,x\n") in
  check_tuples "null" [ tuple [ R.Value.Null; str "x" ] ] (R.Relation.tuples rel)

let test_file_io () =
  let rel = R.Relation.of_list schema [ tuple [ int 7; str "seven" ] ] in
  let path = Filename.temp_file "datacite" ".csv" in
  Csv.save_relation rel path;
  let rel' = Result.get_ok (Csv.load_relation schema path) in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (R.Relation.equal rel rel')

let test_multiline_field_roundtrip () =
  (* quoted fields containing newlines survive save/load *)
  let rel =
    R.Relation.of_list schema
      [ tuple [ int 1; str "line one\nline two" ]; tuple [ int 2; str "plain" ] ]
  in
  let rel' = Result.get_ok (of_string schema (to_string rel)) in
  Alcotest.(check bool) "roundtrip with newline" true (R.Relation.equal rel rel')

let test_parse_records () =
  Alcotest.(check (list (list string))) "simple"
    [ [ "a"; "b" ]; [ "c"; "d" ] ]
    (Csv.parse_records "a,b\nc,d\n");
  Alcotest.(check (list (list string))) "quoted comma"
    [ [ "a,b"; "c" ] ]
    (Csv.parse_records "\"a,b\",c\n");
  Alcotest.(check (list (list string))) "doubled quote"
    [ [ "say \"hi\""; "x" ] ]
    (Csv.parse_records "\"say \"\"hi\"\"\",x");
  Alcotest.(check (list (list string))) "empty fields"
    [ [ ""; ""; "" ] ]
    (Csv.parse_records ",,");
  Alcotest.(check (list (list string))) "quoted newline"
    [ [ "a\nb"; "c" ] ]
    (Csv.parse_records "\"a\nb\",c\n");
  Alcotest.(check (list (list string))) "crlf"
    [ [ "a" ]; [ "b" ] ]
    (Csv.parse_records "a\r\nb\r\n");
  Alcotest.(check (list (list string))) "blank lines dropped"
    [ [ "a" ] ]
    (Csv.parse_records "\n\na\n\n");
  Alcotest.(check (list (list string))) "lone quoted empty field kept"
    [ [ "" ]; [ "x" ] ]
    (Csv.parse_records "\"\"\nx\n");
  Alcotest.(check (list (list string))) "trailing empty fields kept"
    [ [ "a"; "" ] ]
    (Csv.parse_records "a,\n");
  Alcotest.(check bool) "unterminated quote fails" true
    (try
       ignore (Csv.parse_records "\"abc");
       false
     with Failure _ -> true)

let test_timestamp_column_roundtrip () =
  let ts_schema =
    R.Schema.make "Events"
      [ R.Schema.attr ~ty:R.Value.TInt "ID";
        R.Schema.attr ~ty:R.Value.TTimestamp "At" ]
  in
  let rel =
    R.Relation.of_list ts_schema
      [ tuple [ int 1; R.Value.Timestamp 1700000000 ] ]
  in
  let rel' = Result.get_ok (of_string ts_schema (to_string rel)) in
  Alcotest.(check bool) "timestamps survive CSV" true (R.Relation.equal rel rel')

(* The path pbtool hands data to the server by: every string relation of
   one to three columns survives Spec.save_database and load_database,
   whatever its values quote. *)
let prop_database_roundtrip =
  let value =
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 0 3) (oneofl [ ""; ","; "\""; "\n"; "x"; "y z" ])))
  in
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun cols ->
      list_size (int_range 0 6) (list_repeat cols value) >|= fun rows ->
      (cols, rows))
  in
  let print (cols, rows) =
    Printf.sprintf "%d columns: %s" cols
      (String.concat "; "
         (List.map (fun r -> String.concat "|" (List.map String.escaped r)) rows))
  in
  qtest "database roundtrip" (QCheck.make ~print gen)
    (fun (cols, rows) ->
      let schema =
        R.Schema.make "T"
          (List.init cols (fun i ->
               R.Schema.attr ~ty:R.Value.TStr (String.make 1 (Char.chr (65 + i)))))
      in
      let rel =
        R.Relation.of_list schema
          (List.map (fun r -> tuple (List.map str r)) rows)
      in
      let db = R.Database.add_relation R.Database.empty rel in
      let dir = Filename.temp_dir "datacite" "db" in
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Sys.rmdir dir)
        (fun () ->
          Dc_citation.Spec.save_database db ~dir;
          match Dc_citation.Spec.load_database ~dir with
          | Ok db' ->
              List.for_all2 R.Relation.equal (R.Database.relations db)
                (R.Database.relations db')
          | Error e -> QCheck.Test.fail_report e))

let suite =
  [
    Alcotest.test_case "relation roundtrip" `Quick test_relation_roundtrip;
    Alcotest.test_case "header optional" `Quick test_header_optional;
    Alcotest.test_case "type errors reported" `Quick test_type_errors_reported;
    Alcotest.test_case "NULL parsing" `Quick test_null_parsing;
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "multiline field roundtrip" `Quick test_multiline_field_roundtrip;
    Alcotest.test_case "parse_records" `Quick test_parse_records;
    Alcotest.test_case "timestamp column roundtrip" `Quick test_timestamp_column_roundtrip;
    prop_database_roundtrip;
  ]
