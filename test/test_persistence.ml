open Testutil
module R = Dc_relational
module C = Dc_citation
module D = Dc_relational.Delta
module V = C.Versioned_engine
module Wire = Dc_relational.Delta_wire

let schemas = Dc_gtopdb.Schema_def.all_schemas

let sample_delta () =
  D.empty
  |> (fun d ->
       D.insert d "Family" (tuple [ int 31; str "Orexin"; str "O1" ]))
  |> (fun d -> D.delete d "FamilyIntro" (tuple [ int 21; str "Dopamine intro" ]))
  |> fun d -> D.insert d "Committee" (tuple [ int 31; str "Some One" ])

(* A delta file is the wire form, changes joined by [;] with newlines
   around them ignored. *)
let test_delta_roundtrip () =
  let d = sample_delta () in
  let text =
    String.concat ";\n" (String.split_on_char ';' (Wire.render d)) ^ "\n"
  in
  match Wire.parse_typed ~schemas text with
  | Error e -> Alcotest.fail e
  | Ok d' ->
      Alcotest.(check int) "same size" (D.size d) (D.size d');
      (* applying both to the same db gives the same result *)
      let db = paper_db () in
      Alcotest.(check bool) "same effect" true
        (R.Database.equal (D.apply db d) (D.apply db d'))

let test_delta_parse_errors () =
  let refused name text =
    Alcotest.(check bool) name true
      (Result.is_error (Wire.parse_typed ~schemas text))
  in
  refused "unknown relation" "+Nope(1)";
  refused "bad arity" "+Family(1)";
  refused "bad sign" "!Family(1,a,b)";
  refused "bad type" "+Family(xx,a,b)"

let with_temp_dir = Test_storage.with_dir

let test_save_load_database () =
  with_temp_dir (fun dir ->
      let db = paper_db () in
      C.Spec.save_database db ~dir;
      match C.Spec.load_database ~dir with
      | Error e -> Alcotest.fail e
      | Ok db' ->
          Alcotest.(check bool) "roundtrip" true (R.Database.equal db db'))

let test_schema_render_roundtrip () =
  let text = C.Spec.render_schemas schemas in
  match C.Spec.parse_schemas text with
  | Error e -> Alcotest.fail e
  | Ok schemas' ->
      Alcotest.(check int) "same count" (List.length schemas)
        (List.length schemas');
      List.iter2
        (fun a b ->
          Alcotest.(check bool) (R.Schema.name a) true (R.Schema.equal a b))
        schemas schemas'

let ok = function Ok x -> x | Error e -> Alcotest.fail e
let close (_, st, _) = Dc_storage.Store.close st

(* The one open sequence the CLI and the server share; [db] initializes
   a fresh store. *)
let open_store ?fresh ?db dir =
  V.open_durable ?fresh ?db ~dir (fun db ->
      C.Engine.create db Dc_gtopdb.Paper_views.all)

let test_store_lifecycle () =
  with_temp_dir (fun dir ->
      let store_dir = Filename.concat dir "store" in
      let db = paper_db () in
      let ve, st, _ = ok (open_store ~fresh:true ~db store_dir) in
      (* double init rejected *)
      Alcotest.(check bool) "double init" true
        (Result.is_error (open_store ~fresh:true ~db store_dir));
      (* two commits *)
      let d1 = D.insert D.empty "Family" (tuple [ int 31; str "Orexin"; str "O1" ]) in
      let d2 =
        D.delete D.empty "FamilyIntro" (tuple [ int 21; str "Dopamine intro" ])
      in
      Alcotest.(check (result int string)) "v1" (Ok 1) (V.commit_delta ve d1);
      Alcotest.(check (result int string)) "v2" (Ok 2) (V.commit_delta ve d2);
      Dc_storage.Store.close st;
      (* reload and check every version *)
      let reopened = ok (open_store store_dir) in
      let ve, _, _ = reopened in
      Fun.protect ~finally:(fun () -> close reopened) @@ fun () ->
      let store = V.store ve in
      Alcotest.(check (list int)) "versions" [ 0; 1; 2 ]
        (R.Version_store.versions store);
      let v0 = R.Version_store.checkout_exn store 0 in
      Alcotest.(check bool) "v0 = original" true (R.Database.equal v0 db);
      let v2 = R.Version_store.checkout_exn store 2 in
      Alcotest.(check bool) "v2 has orexin" true
        (R.Relation.mem
           (R.Database.relation_exn v2 "Family")
           (tuple [ int 31; str "Orexin"; str "O1" ]));
      Alcotest.(check bool) "v2 lost dopamine intro" false
        (R.Relation.mem
           (R.Database.relation_exn v2 "FamilyIntro")
           (tuple [ int 21; str "Dopamine intro" ])))

let test_store_fixity_after_reload () =
  with_temp_dir (fun dir ->
      let store_dir = Filename.concat dir "store" in
      close (ok (open_store ~fresh:true ~db:(paper_db ()) store_dir));
      (* cite at v0 through a freshly loaded store *)
      let ((ve0, _, _) as opened) = ok (open_store store_dir) in
      let stamped = ok (V.cite ve0 Dc_gtopdb.Paper_views.query_q) in
      (* evolve on disk, reload in a separate "process" *)
      let d =
        D.delete D.empty "FamilyIntro" (tuple [ int 21; str "Dopamine intro" ])
      in
      ignore (ok (V.commit_delta ve0 d));
      close opened;
      let ((ve1, _, _) as reopened) = ok (open_store store_dir) in
      Fun.protect ~finally:(fun () -> close reopened) @@ fun () ->
      Alcotest.(check bool) "old citation re-cites after reload" true
        (List.equal R.Tuple.equal
           (cited_tuples
              (ok (V.cite_at ve1 stamped.V.version stamped.V.result.query)))
           (cited_tuples stamped));
      Alcotest.(check (result bool string)) "old digest verifies after reload"
        (Ok true)
        (V.verify ve1 stamped.V.version stamped.V.digest))

(* A refused commit writes nothing: the head and the log's bytes stay
   as they were, also for a value the log could not replay. *)
let test_bad_delta_rejected_by_commit () =
  with_temp_dir (fun dir ->
      let store_dir = Filename.concat dir "store" in
      let ((ve, _, _) as opened) =
        ok (open_store ~fresh:true ~db:(paper_db ()) store_dir)
      in
      Fun.protect ~finally:(fun () -> close opened) @@ fun () ->
      let wal_path = Filename.concat store_dir "wal.log" in
      let wal () = Test_storage.read_file wal_path in
      let before = wal () in
      let bad = D.insert D.empty "Nope" (tuple [ int 1 ]) in
      Alcotest.(check bool) "rejected" true
        (Result.is_error (V.commit_delta ve bad));
      let null_str =
        D.insert D.empty "Family" (tuple [ int 31; str "NULL"; str "O1" ])
      in
      (match V.commit_delta ve null_str with
      | Ok v -> Alcotest.failf "Str \"NULL\" committed as v%d" v
      | Error e ->
          Alcotest.(check bool) ("names the value: " ^ e) true
            (Test_storage.contains e {|"NULL"|}));
      Alcotest.(check int) "head unmoved" 0 (V.head ve);
      Alcotest.(check string) "log unchanged" before (wal ()))

let suite =
  [
    Alcotest.test_case "delta roundtrip" `Quick test_delta_roundtrip;
    Alcotest.test_case "delta parse errors" `Quick test_delta_parse_errors;
    Alcotest.test_case "save/load database" `Quick test_save_load_database;
    Alcotest.test_case "schema render roundtrip" `Quick test_schema_render_roundtrip;
    Alcotest.test_case "store lifecycle" `Quick test_store_lifecycle;
    Alcotest.test_case "fixity across reload" `Quick test_store_fixity_after_reload;
    Alcotest.test_case "bad delta rejected" `Quick test_bad_delta_rejected_by_commit;
  ]
