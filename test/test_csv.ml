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
  check_tuples "null" [ tuple [ R.Value.Null; str "x" ] ] (R.Relation.tuples rel);
  (* bare, any case reads as NULL; quoted in a string column, it is the
     string; an int column has no such string *)
  let rel =
    Result.get_ok
      (of_string schema "1,null\n2,\"null\"\n3,\"NULL\"\n\"Null\",Null\n")
  in
  check_tuples "quoted null is a string"
    [
      tuple [ R.Value.Null; R.Value.Null ];
      tuple [ int 1; R.Value.Null ];
      tuple [ int 2; str "null" ];
      tuple [ int 3; str "NULL" ];
    ]
    (R.Relation.tuples rel);
  let rel = R.Relation.of_list schema [ tuple [ int 1; str "nULl" ] ] in
  Alcotest.(check string) "a string reading as NULL is written quoted"
    "A,B\n1,\"nULl\"\n" (to_string rel)

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

let str_schema cols =
  R.Schema.make "S"
    (List.init cols (fun i ->
         R.Schema.attr ~ty:R.Value.TStr (String.make 1 (Char.chr (65 + i)))))

(* The loader against its expected rows and against the record scanner
   it replaced, which coerces and inserts field by field. *)
let test_loader_cases () =
  let case name cols doc want =
    let schema = str_schema cols in
    let got = of_string schema doc in
    (match got with
    | Ok rel ->
        check_tuples name
          (List.map (fun r -> tuple (List.map str r)) want)
          (R.Relation.tuples rel)
    | Error e -> Alcotest.failf "%s: %s" name e);
    match Dc_oracle.Csv_records.load schema doc with
    | Ok old ->
        Alcotest.(check bool) (name ^ ": as the record scanner") true
          (R.Relation.equal old (Result.get_ok got))
    | Error e -> Alcotest.failf "%s: record scanner: %s" name e
  in
  case "simple" 2 "a,b\nc,d\n" [ [ "a"; "b" ]; [ "c"; "d" ] ];
  case "quoted comma" 2 "\"a,b\",c\n" [ [ "a,b"; "c" ] ];
  case "doubled quote" 2 "\"say \"\"hi\"\"\",x" [ [ "say \"hi\""; "x" ] ];
  case "empty fields" 3 ",," [ [ ""; ""; "" ] ];
  case "quoted newline" 2 "\"a\nb\",c\n" [ [ "a\nb"; "c" ] ];
  case "crlf" 1 "a\r\nb\r\n" [ [ "a" ]; [ "b" ] ];
  case "blank lines dropped" 1 "\n\na\n\r\n\n" [ [ "a" ] ];
  case "lone quoted empty field kept" 1 "\"\"\nx\n" [ [ "" ]; [ "x" ] ];
  case "trailing empty fields kept" 2 "a,\n" [ [ "a"; "" ] ];
  case "text after a closing quote" 1 "\"ab\"cd\na\"b\n" [ [ "a\"b" ]; [ "abcd" ] ];
  case "header skipped" 2 "A,B\nx,y\n" [ [ "x"; "y" ] ];
  case "header absent" 2 "B,A\nx,y\n" [ [ "B"; "A" ]; [ "x"; "y" ] ];
  case "no final newline" 2 "a,b\nc,d" [ [ "a"; "b" ]; [ "c"; "d" ] ];
  case "lone carriage return is text" 1 "a\rb\n" [ [ "a\rb" ] ];
  List.iter
    (fun (name, doc) ->
      Alcotest.(check bool) name true
        (Result.is_error (of_string (str_schema 2) doc)
        && Result.is_error (Dc_oracle.Csv_records.load (str_schema 2) doc)))
    [
      ("unterminated quote fails", "a,\"abc");
      ("unterminated quote in a later row fails", "a,b\nc,\"d\ne,f\n");
      ("too few fields fails", "a,b\nc\n");
      ("too many fields fails", "a,b,c\n");
    ]

(* Documents over the characters that CSV structure turns on, loaded
   with the single-pass loader and with the record scanner: both fail,
   or both make the same relation.  No token reads as NULL, which is
   the one place the two differ on purpose. *)
let prop_loader_matches_scanner =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 3)
        (map (String.concat "")
           (list_size (int_range 0 30)
              (oneofl [ "a"; "b c"; ","; "\""; "\"\""; "\n"; "\r\n"; "\r"; "A" ]))))
  in
  let print (cols, doc) = Printf.sprintf "%d columns: %S" cols doc in
  qtest "loader matches the record scanner" (QCheck.make ~print gen)
    (fun (cols, doc) ->
      let schema = str_schema cols in
      match (of_string schema doc, Dc_oracle.Csv_records.load schema doc) with
      | Ok a, Ok b -> R.Relation.equal a b
      | Error _, Error _ -> true
      | Ok _, Error e -> QCheck.Test.fail_reportf "scanner failed: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "loader failed: %s" e)

(* Integer columns are read in place, without cutting the field out;
   every text [int_of_string] reads, and every one it refuses, must come
   out as the record scanner's {!R.Value.of_string} makes it, quoted or
   not (an integer column has no string to keep from NULL). *)
let prop_int_fields_match_scanner =
  let field =
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 0 3)
           (oneofl
              [ "0"; "7"; "00"; "-"; "+"; "_"; "x"; "0x1F"; "NULL";
                "123456789012345678"; "9223372036854775807"; "4611686018427387904";
                "9999999999999999999" ]))
      >>= fun text -> oneofl [ text; "\"" ^ text ^ "\"" ])
  in
  let gen = QCheck.Gen.(list_size (int_range 0 2) (pair field field)) in
  let print rows =
    String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "%S,%S" a b) rows)
  in
  let schema =
    R.Schema.make "I"
      [ R.Schema.attr ~ty:R.Value.TInt "A"; R.Schema.attr ~ty:R.Value.TInt "B" ]
  in
  QCheck_alcotest.to_alcotest
  @@ QCheck.Test.make ~name:"integer fields match the record scanner" ~count:1000
       (QCheck.make ~print gen)
  @@ fun rows ->
      let doc =
        String.concat "" (List.map (fun (a, b) -> a ^ "," ^ b ^ "\n") rows)
      in
      match (of_string schema doc, Dc_oracle.Csv_records.load schema doc) with
      | Ok a, Ok b -> same_stored a b
      | Error _, Error _ -> true
      | Ok _, Error e -> QCheck.Test.fail_reportf "scanner failed: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "loader failed: %s" e

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
        (list_size (int_range 0 3)
           (oneofl [ ""; ","; "\""; "\n"; "x"; "y z"; "NULL"; "null"; "Null" ])))
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
      let schema = str_schema cols in
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

(* A float column reloads bit for bit: [Value.to_string]'s six digits
   would turn [0.1234567] into [0.123457].  A NaN's payload has no text,
   so a NaN need only reload as a NaN of the same sign. *)
let prop_float_roundtrip =
  let specials = [ 0.1234567; 1e-7; -0.; infinity; nan ] in
  let print fs = String.concat "; " (List.map (Printf.sprintf "%h") fs) in
  qtest "float column roundtrip by bits"
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 0 20) float))
    (fun fs ->
      let schema = R.Schema.make "F" [ R.Schema.attr ~ty:R.Value.TFloat "X" ] in
      let rel =
        R.Relation.of_list schema
          (List.map (fun f -> tuple [ R.Value.Float f ]) (specials @ fs))
      in
      let same_bits t u =
        match (t, u) with
        | [| R.Value.Float f |], [| R.Value.Float g |] ->
            if Float.is_nan f then
              Float.is_nan g && Float.sign_bit f = Float.sign_bit g
            else Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
        | _ -> false
      in
      match of_string schema (to_string rel) with
      | Ok rel' ->
          R.Relation.cardinality rel = R.Relation.cardinality rel'
          && Array.for_all2 same_bits (R.Relation.scan rel)
               (R.Relation.scan rel')
      | Error e -> QCheck.Test.fail_report e)

let suite =
  [
    Alcotest.test_case "relation roundtrip" `Quick test_relation_roundtrip;
    Alcotest.test_case "header optional" `Quick test_header_optional;
    Alcotest.test_case "type errors reported" `Quick test_type_errors_reported;
    Alcotest.test_case "NULL parsing" `Quick test_null_parsing;
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "multiline field roundtrip" `Quick test_multiline_field_roundtrip;
    Alcotest.test_case "loader cases" `Quick test_loader_cases;
    prop_loader_matches_scanner;
    prop_int_fields_match_scanner;
    Alcotest.test_case "timestamp column roundtrip" `Quick test_timestamp_column_roundtrip;
    prop_database_roundtrip;
    prop_float_roundtrip;
  ]
