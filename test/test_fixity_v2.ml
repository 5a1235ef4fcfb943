(* The v2 fixity digest: carried per-relation multiset hashes against a
   from-scratch digest, and the v1 collisions v2 tells apart. *)

module R = Dc_relational
module C = Dc_citation
module V = C.Versioned_engine
module F = C.Fixity

let schema name =
  R.Schema.make name
    [ R.Schema.attr ~ty:R.Value.TInt "A"; R.Schema.attr ~ty:R.Value.TStr "B" ]

let base_db () =
  List.fold_left
    (fun db n -> R.Database.create_relation db (schema n))
    R.Database.empty [ "P"; "R"; "S" ]
  |> fun db ->
  R.Database.insert_list db "R"
    [ R.Tuple.make R.Value.[ Int 1; Str "a" ]; R.Tuple.make R.Value.[ Int 2; Str "b" ] ]

(* The same database rebuilt from its tuples into fresh relation values,
   none of which has a hash memoized: the digest recomputes everything. *)
let scratch_digest db =
  F.digest_v2
    (List.fold_left
       (fun acc rel ->
         R.Database.add_relation acc
           (R.Relation.of_list (R.Relation.schema rel) (R.Relation.tuples rel)))
       R.Database.empty (R.Database.relations db))

type op = Ins of string * R.Tuple.t | Del of string * R.Tuple.t | Move of R.Tuple.t

(* Few distinct tuples, so inserts often duplicate and deletes often
   miss. *)
let gen_tuple strings =
  QCheck.Gen.(
    map2
      (fun a b -> R.Tuple.make R.Value.[ Int a; Str b ])
      (int_bound 4) (oneofl strings))

let gen_op strings =
  let t = gen_tuple strings in
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun r t -> Ins (r, t)) (oneofl [ "R"; "S" ]) t);
        (3, map2 (fun r t -> Del (r, t)) (oneofl [ "R"; "S" ]) t);
        (1, map (fun t -> Move t) t);
      ])

(* one commit: a few ops, and whether to demand the new version's digest
   right away (undemanded versions exercise relations with no hash) *)
let gen_stream strings =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (pair (list_size (int_range 1 4) (gen_op strings)) bool))

let delta_of ops =
  List.fold_left
    (fun d -> function
      | Ins (r, t) -> R.Delta.insert d r t
      | Del (r, t) -> R.Delta.delete d r t
      | Move t -> R.Delta.insert (R.Delta.delete d "R" t) "S" t)
    R.Delta.empty ops

let print_stream stream =
  let op = function
    | Ins (r, t) -> "+" ^ r ^ R.Tuple.to_string t
    | Del (r, t) -> "-" ^ r ^ R.Tuple.to_string t
    | Move t -> "R->S" ^ R.Tuple.to_string t
  in
  String.concat " | "
    (List.map
       (fun (ops, demand) ->
         String.concat ";" (List.map op ops) ^ if demand then " !" else "")
       stream)

let ok_exn what = function Ok x -> x | Error e -> Alcotest.failf "%s: %s" what e

let run_stream ve stream =
  List.iter
    (fun (ops, demand) ->
      let v = ok_exn "commit" (V.commit_delta ve (delta_of ops)) in
      if demand then ignore (ok_exn "digest" (V.digest_at ve v)))
    stream

let all_versions_agree ve =
  let store = V.store ve in
  List.for_all
    (fun v ->
      String.equal
        (ok_exn "digest" (V.digest_at ve v))
        (scratch_digest (R.Version_store.checkout_exn store v)))
    (V.versions ve)

let test_carried_equals_scratch =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"carried v2 digest = from-scratch v2 digest"
       ~count:200
       (QCheck.make ~print:print_stream (gen_stream [ "a"; "b"; "" ]))
       (fun stream ->
         let ve = V.of_engine @@ C.Engine.create (base_db ()) [] in
         ignore (ok_exn "digest v0" (V.digest_at ve 0));
         run_stream ve stream;
         all_versions_agree ve))

(* Like [run_stream], but a commit may be refused: the WAL cannot log a
   string its line format would not read back ([""], ["NULL"]).  A
   refused commit must leave the head where it was. *)
let run_stream_durable ve stream =
  List.for_all
    (fun (ops, demand) ->
      let head = V.head ve in
      match V.commit_delta ve (delta_of ops) with
      | Ok v ->
          if demand then ignore (ok_exn "digest" (V.digest_at ve v));
          true
      | Error _ -> V.head ve = head)
    stream

(* The same property across a restart: the first half is committed
   durably, the store is recovered from its WAL, and the second half is
   committed on the recovered store.  Every commit is either refused or
   recovered exactly. *)
let test_carried_after_recovery =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"carried v2 digest = scratch after WAL recovery"
       ~count:25
       (QCheck.make ~print:print_stream (gen_stream [ "a"; "b"; ""; "NULL" ]))
       (fun stream ->
         Test_storage.with_dir @@ fun dir ->
         let db = base_db () in
         let half = List.length stream / 2 in
         let first = List.filteri (fun i _ -> i < half) stream in
         let second = List.filteri (fun i _ -> i >= half) stream in
         let ve, st, _ =
           ok_exn "open"
             (V.open_durable ~db ~dir (fun db -> C.Engine.create db []))
         in
         ignore (ok_exn "digest v0" (V.digest_at ve 0));
         let first_ok = run_stream_durable ve first in
         let before = all_versions_agree ve in
         Dc_storage.Store.close st;
         let ve', st, _ =
           ok_exn "reopen"
             (V.open_durable ~dir (fun db -> C.Engine.create db []))
         in
         Fun.protect ~finally:(fun () -> Dc_storage.Store.close st) @@ fun () ->
         let same_versions = V.versions ve' = V.versions ve in
         let same_head =
           String.equal
             (ok_exn "old head" (V.digest_at ve (V.head ve)))
             (ok_exn "recovered head" (V.digest_at ve' (V.head ve')))
         in
         let second_ok = run_stream_durable ve' second in
         first_ok && before && same_versions && same_head && second_ok
         && all_versions_agree ve'))

(* Database pairs v1 renders identically and v2 tells apart. *)
let test_v1_collisions_split () =
  let any_schema =
    R.Schema.make "T"
      [ R.Schema.attr ~ty:R.Value.TAny "A"; R.Schema.attr ~ty:R.Value.TAny "B" ]
  in
  let db tuples =
    R.Database.add_relation R.Database.empty
      (R.Relation.of_list any_schema (List.map R.Tuple.make tuples))
  in
  List.iter
    (fun (what, a, b) ->
      let a = db a and b = db b in
      Alcotest.(check string) (what ^ ": v1 collides") (F.digest_db a) (F.digest_db b);
      Alcotest.(check bool) (what ^ ": v2 differs") false
        (String.equal (F.digest_v2 a) (F.digest_v2 b)))
    R.Value.
      [
        ("Int 1 / Str \"1\"", [ [ Int 1; Null ] ], [ [ Str "1"; Null ] ]);
        ("Null / Str \"NULL\"", [ [ Null; Int 0 ] ], [ [ Str "NULL"; Int 0 ] ]);
        ( "Float 1.0 / 1.0000001",
          [ [ Float 1.0; Null ] ],
          [ [ Float 1.0000001; Null ] ] );
        ( "\\x01 inside a string / split over two columns",
          [ [ Str "a\x01b"; Str "" ] ],
          [ [ Str "a"; Str "b\x01" ] ] );
      ]

(* The tag: v2 digests carry ":v2", so a 32-hex v1 digest never equals
   one, and verification dispatches on it. *)
let test_tags () =
  let ve = V.of_engine @@ C.Engine.create (base_db ()) [] in
  let v2 = ok_exn "digest" (V.digest_at ve 0) in
  let v1 = F.digest_db (R.Version_store.checkout_exn (V.store ve) 0) in
  Alcotest.(check int) "v1 is 32 hex" 32 (String.length v1);
  Alcotest.(check bool) "v2 is tagged" true
    (String.length v2 = 35 && String.sub v2 32 3 = ":v2");
  Alcotest.(check bool) "v2 verifies" true (ok_exn "v2" (V.verify ve 0 v2));
  Alcotest.(check bool) "untagged v1 verifies" true (ok_exn "v1" (V.verify ve 0 v1));
  Alcotest.(check bool) "v1 hex under the v2 tag does not" false
    (ok_exn "cross" (V.verify ve 0 (v1 ^ ":v2")));
  match V.verify ve 0 (String.sub v2 0 32 ^ ":v9") with
  | Error e ->
      Alcotest.(check bool) "the error names the tag" true
        (Test_storage.contains e ":v9")
  | Ok _ -> Alcotest.fail "an unknown tag must be an Error"

let suite =
  [
    test_carried_equals_scratch;
    test_carried_after_recovery;
    Alcotest.test_case "v2 splits v1's collisions" `Quick test_v1_collisions_split;
    Alcotest.test_case "scheme tags and verify dispatch" `Quick test_tags;
  ]
