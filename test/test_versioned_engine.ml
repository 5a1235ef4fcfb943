(* Versioned engine: cite-as-of determinism, fixity digests, LRU
   eviction, registrations maintained across commits, and the shared
   delta-application path. *)

open Testutil
module C = Dc_citation
module V = Dc_citation.Versioned_engine
module E = Dc_citation.Engine
module I = Dc_citation.Incremental
module R = Dc_relational
module D = Dc_relational.Delta

let q = Dc_gtopdb.Paper_views.query_q
let views = Dc_gtopdb.Paper_views.all
let policy () = C.Policy.make ~alt_r:C.Policy.Keep_all ()

let make ?capacity () =
  V.of_engine ?capacity @@ E.create ~selection:`All ~policy:(policy ()) (paper_db ()) views

(* Everything observable about a result, as one string: the JSON
   summary plus every tuple's expression.  Byte equality of
   fingerprints is the paper's determinism requirement for cite-as-of. *)
let fingerprint (r : E.result) =
  Dc_oracle.Result_json.of_result r
  ^ "§"
  ^ String.concat "|"
      (List.map
         (fun (tc : E.tuple_citation) ->
           R.Tuple.to_string tc.tuple ^ "=" ^ C.Cite_expr.to_string tc.expr)
         r.tuples)

(* Tuple-level fingerprint only (no enumeration stats): what a
   registration-served result must share with a fresh recomputation. *)
let tuple_fingerprint (r : E.result) =
  String.concat "|"
    (List.map
       (fun (tc : E.tuple_citation) ->
         R.Tuple.to_string tc.tuple ^ "=" ^ C.Cite_expr.to_string tc.expr)
       r.tuples)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error %s" what e

let delta_orexin () =
  D.empty
  |> (fun d -> D.insert d "Family" (tuple [ int 30; str "Orexin"; str "O1" ]))
  |> fun d -> D.insert d "FamilyIntro" (tuple [ int 30; str "Orexin intro" ])

let delta_galanin () =
  D.empty
  |> (fun d -> D.insert d "Family" (tuple [ int 31; str "Galanin"; str "G1" ]))
  |> fun d -> D.insert d "FamilyIntro" (tuple [ int 31; str "Galanin intro" ])

(* A fresh single-version engine over [db]: the recomputation oracle. *)
let oracle db = E.create ~selection:`All ~policy:(policy ()) db views

let test_cite_at_determinism () =
  let ve = make () in
  let before = ok_exn "cite v0" (V.cite_at ve 0 q) in
  Alcotest.(check int) "version stamped" 0 before.V.version;
  Alcotest.(check bool) "digest non-empty" true (before.V.digest <> "");
  let v1 = ok_exn "commit" (V.commit_delta ve (delta_orexin ())) in
  Alcotest.(check int) "head advanced" 1 v1;
  Alcotest.(check int) "head accessor" 1 (V.head ve);
  (* pre-delta version: byte-identical citations, same digest *)
  let after = ok_exn "cite v0 again" (V.cite_at ve 0 q) in
  Alcotest.(check string)
    "pre-delta citations byte-identical"
    (fingerprint before.V.result)
    (fingerprint after.V.result);
  Alcotest.(check string) "same digest" before.V.digest after.V.digest;
  Alcotest.(check bool)
    "digest verifies" true
    (ok_exn "verify" (V.verify ve 0 before.V.digest));
  (* the head sees the delta *)
  let head = ok_exn "cite head" (V.cite_at ve 1 q) in
  Alcotest.(check int) "head has the new family" 3
    (List.length head.V.result.E.tuples);
  Alcotest.(check int) "old version unchanged" 2
    (List.length after.V.result.E.tuples);
  Alcotest.(check bool)
    "digests differ across versions" true
    (head.V.digest <> before.V.digest);
  (* and [cite] is cite_at head *)
  let via_cite = ok_exn "cite" (V.cite ve q) in
  Alcotest.(check string) "cite = cite_at head"
    (fingerprint head.V.result)
    (fingerprint via_cite.V.result)

let test_digest_tampering () =
  let ve = make () in
  let d = ok_exn "digest" (V.digest_at ve 0) in
  Alcotest.(check bool) "correct digest verifies" true
    (ok_exn "verify ok" (V.verify ve 0 d));
  let tampered =
    String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) d
  in
  Alcotest.(check bool) "tampered digest fails" false
    (ok_exn "verify tampered" (V.verify ve 0 tampered));
  (match V.verify ve 99 d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown version must be an Error");
  match V.cite_at ve 99 q with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cite_at unknown version must be an Error"

let test_commit_errors () =
  let ve = make () in
  (match
     V.commit_delta ve (D.insert D.empty "NoSuchRelation" (int_tuple [ 1 ]))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown relation must be an Error");
  (match V.commit_delta ve (D.insert D.empty "Family" (int_tuple [ 1 ])) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema mismatch must be an Error");
  (* failed commits change nothing *)
  Alcotest.(check int) "head still 0" 0 (V.head ve);
  Alcotest.(check (list int)) "only version 0" [ 0 ] (V.versions ve);
  let c = ok_exn "cite after failed commits" (V.cite ve q) in
  Alcotest.(check int) "still two tuples" 2 (List.length c.V.result.E.tuples)

let test_lru_eviction () =
  let ve = make ~capacity:2 () in
  let v0 = ok_exn "cite v0 cold" (V.cite_at ve 0 q) in
  ignore (ok_exn "commit 1" (V.commit_delta ve (delta_orexin ())));
  ignore (ok_exn "commit 2" (V.commit_delta ve (delta_galanin ())));
  (* materialize head (2), then 1: capacity 2 forces version 0 out *)
  ignore (ok_exn "cite head" (V.cite_at ve 2 q));
  ignore (ok_exn "cite v1" (V.cite_at ve 1 q));
  let cached = List.sort compare (V.cached_versions ve) in
  Alcotest.(check bool) "at most 2 cached" true (List.length cached <= 2);
  Alcotest.(check bool) "version 0 evicted" false (List.mem 0 cached);
  Alcotest.(check bool) "head survives" true (List.mem 2 cached);
  Alcotest.(check bool)
    "evictions counted" true
    (C.Metrics.count (V.metrics ve) C.Metrics.Key.version_cache_evictions >= 1);
  (* re-materialized v0 engine reproduces the original citations
     byte-for-byte, and matches a fresh-engine oracle *)
  let again = ok_exn "cite v0 after eviction" (V.cite_at ve 0 q) in
  Alcotest.(check string)
    "eviction does not change citations"
    (fingerprint v0.V.result)
    (fingerprint again.V.result);
  let fresh = E.cite (oracle (paper_db ())) q in
  Alcotest.(check string)
    "matches fresh-engine oracle" (fingerprint fresh)
    (fingerprint again.V.result);
  (* head engine keeps being served from cache while old versions churn *)
  Alcotest.(check bool)
    "hits recorded" true
    (C.Metrics.count (V.metrics ve) C.Metrics.Key.version_cache_hits >= 1)

let test_registration_maintained () =
  let ve = make () in
  let cold = ok_exn "cite before register" (V.cite ve q) in
  Alcotest.(check bool) "engine-served" false cold.V.from_registration;
  ok_exn "register" (V.register ve q);
  let warm = ok_exn "cite after register" (V.cite ve q) in
  Alcotest.(check bool) "registration-served" true warm.V.from_registration;
  Alcotest.(check string) "same tuples either way"
    (tuple_fingerprint cold.V.result)
    (tuple_fingerprint warm.V.result);
  (* commit: the registration advances with the head *)
  ignore (ok_exn "commit" (V.commit_delta ve (delta_orexin ())));
  Alcotest.(check int)
    "maintenance counted" 1
    (C.Metrics.count (V.metrics ve) C.Metrics.Key.registrations_maintained);
  let head = ok_exn "cite head post-commit" (V.cite ve q) in
  Alcotest.(check bool) "still registration-served" true
    head.V.from_registration;
  let fresh = E.cite (oracle (D.apply (paper_db ()) (delta_orexin ()))) q in
  Alcotest.(check string)
    "maintained registration = fresh recompute" (tuple_fingerprint fresh)
    (tuple_fingerprint head.V.result);
  (* old version is engine-served, with pre-delta answers *)
  let old = ok_exn "cite v0" (V.cite_at ve 0 q) in
  Alcotest.(check bool) "old version engine-served" false
    old.V.from_registration;
  Alcotest.(check int) "old version pre-delta" 2
    (List.length old.V.result.E.tuples)

(* Regression for the shared delta-application path: a delta that
   inserts and then deletes the same tuple is order-sensitive, so the
   store head and every derived state must come from ONE application
   ([Version_store.apply_head]), not from independent re-applications
   that could disagree on ordering. *)
let test_shared_delta_path () =
  let ve = make () in
  ok_exn "register" (V.register ve q);
  let tricky =
    delta_orexin ()
    |> (fun d -> D.insert d "Family" (tuple [ int 40; str "Ghost"; str "G" ]))
    |> fun d -> D.delete d "Family" (tuple [ int 40; str "Ghost"; str "G" ])
  in
  ignore (ok_exn "commit tricky" (V.commit_delta ve tricky));
  (* the head database is exactly one application of the delta *)
  let expected_db = D.apply (paper_db ()) tricky in
  let head_eng = ok_exn "head engine" (V.engine_at ve (V.head ve)) in
  Alcotest.(check bool)
    "head db = single delta application" true
    (R.Database.equal expected_db (E.database head_eng));
  (* and the maintained registration answers over that same database *)
  let reg_served = ok_exn "cite head" (V.cite ve q) in
  Alcotest.(check bool) "served from registration" true
    reg_served.V.from_registration;
  let fresh = E.cite (oracle expected_db) q in
  Alcotest.(check string)
    "registration agrees with oracle over shared db"
    (tuple_fingerprint fresh)
    (tuple_fingerprint reg_served.V.result)

let test_timestamps_and_store () =
  let ve = make () in
  ignore (ok_exn "commit" (V.commit_delta ve (delta_orexin ())));
  Alcotest.(check (list int)) "versions" [ 0; 1 ] (V.versions ve);
  (* the default deterministic clock stamps version i at i+1 *)
  Alcotest.(check (option int)) "v0 timestamp" (Some 1) (V.timestamp ve 0);
  Alcotest.(check (option int)) "v1 timestamp" (Some 2) (V.timestamp ve 1);
  Alcotest.(check (option int)) "unknown timestamp" None (V.timestamp ve 9);
  let stamped = ok_exn "cite v1" (V.cite_at ve 1 q) in
  Alcotest.(check (option int)) "stamp carries commit time" (Some 2)
    stamped.V.timestamp;
  (* the store snapshot is persistent: committing after taking it does
     not change what the snapshot sees *)
  let snap = V.store ve in
  ignore (ok_exn "commit 2" (V.commit_delta ve (delta_galanin ())));
  Alcotest.(check int) "snapshot head unmoved" 1 (R.Version_store.head snap);
  Alcotest.(check int) "live head moved" 2 (V.head ve)

(* The server's v1 path cites the head engine directly; it must agree
   with a stamped cite of the head and with a plain engine. *)
let test_head_engine_agrees () =
  let eng = oracle (paper_db ()) in
  let ve = make () in
  let via_engine = E.cite eng q in
  let via_head =
    E.cite (ok_exn "engine_at head" (V.engine_at ve (V.head ve))) q
  in
  let via_versioned = (ok_exn "cite head" (V.cite ve q)).V.result in
  Alcotest.(check string) "engine = head engine" (fingerprint via_engine)
    (fingerprint via_head);
  Alcotest.(check string) "engine = versioned" (fingerprint via_engine)
    (fingerprint via_versioned);
  match E.cite_string eng "not a query" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse failure must be an Error"

(* A commit whose registration maintenance raises must leave no trace:
   the head, the registrations and the durable log all stay on the
   previous version, and the next commit takes the version number the
   failed one would have had.  V1's [post] hook raises while [armed],
   and maintaining the registered query resolves a fresh V1 leaf for
   the family the delta inserts. *)
let test_failed_maintenance_logs_nothing () =
  Test_storage.with_dir @@ fun dir ->
  let armed = ref false in
  let trap =
    C.Citation_view.make_exn
      ~post:(fun c -> if !armed then failwith "maintenance trap" else c)
      ~view:(C.Citation_view.definition Dc_gtopdb.Paper_views.v1)
      ~citations:(C.Citation_view.citation_queries Dc_gtopdb.Paper_views.v1)
      ()
  in
  let db = paper_db () in
  let ve, st, _ =
    ok_exn "open store"
      (V.open_durable ~db ~dir (fun db ->
           E.create ~selection:`All ~policy:(policy ()) db
             [ trap; Dc_gtopdb.Paper_views.v2; Dc_gtopdb.Paper_views.v3 ]))
  in
  ok_exn "register" (V.register ve q);
  Alcotest.(check int) "first commit" 1
    (ok_exn "commit" (V.commit_delta ve (delta_orexin ())));
  let before = ok_exn "cite head" (V.cite ve q) in
  let regs = V.registrations ve in
  armed := true;
  (match V.commit_delta ve (delta_galanin ()) with
  | Ok v -> Alcotest.failf "commit with failing maintenance gave v%d" v
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "commit raised %s instead of failing" (Printexc.to_string e));
  armed := false;
  Alcotest.(check int) "head unmoved" 1 (V.head ve);
  Alcotest.(check (list int)) "no version added" [ 0; 1 ] (V.versions ve);
  Alcotest.(check (list string)) "registrations kept" regs (V.registrations ve);
  let after = ok_exn "cite head again" (V.cite ve q) in
  Alcotest.(check bool) "still registration-served" true
    after.V.from_registration;
  Alcotest.(check string) "registration on the previous version"
    (tuple_fingerprint before.V.result)
    (tuple_fingerprint after.V.result);
  Dc_storage.Store.close st;
  let ve', st, _ =
    ok_exn "reopen store" (V.open_durable ~dir (fun db -> E.create db views))
  in
  Fun.protect ~finally:(fun () -> Dc_storage.Store.close st) @@ fun () ->
  let recovered = V.store ve' in
  Alcotest.(check int) "recovered head is the previous version" 1
    (R.Version_store.head recovered);
  Alcotest.(check bool) "recovered head database = published head" true
    (R.Database.equal
       (R.Version_store.head_db (V.store ve))
       (R.Version_store.head_db recovered));
  Alcotest.(check int) "next commit takes the failed one's number" 2
    (ok_exn "commit after recovery" (V.commit_delta ve' (delta_galanin ())))

(* ------------------------------------------------------------------ *)
(* Each version's IDB continues from its nearest derived ancestor.    *)

module L = Test_lazy_engine

let counter ve k = C.Metrics.count (V.metrics ve) k
let scratch ve = counter ve C.Metrics.Key.datalog_scratch_derivations
let continued ve = counter ve C.Metrics.Key.datalog_continued_derivations
let rederived ve = counter ve C.Metrics.Key.datalog_rederived_strata

(* The version's IDB, forced through its engine, against a derivation
   from scratch over its database. *)
let check_idb ve v =
  let eng = ok_exn "engine_at" (V.engine_at ve v) in
  let db = R.Version_store.checkout_exn (V.store ve) v in
  let want =
    Dc_cq.Seminaive.run db (Option.get (E.program eng)).Dc_cq.Program.strat
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "v%d %s = from scratch" v p)
        true
        (R.Relation.equal
           (R.Database.relation_exn (E.derived_database eng) p)
           (R.Database.relation_exn want p)))
    (Dc_cq.Program.idb_preds (Option.get (E.program eng)))

(* The curate shape: commits add one to three Subfamily edges under
   new families, closure cites follow some commits, and CITE_ATs of old
   versions, which evict engines from the 4-entry LRU, come in
   between. *)
let test_curate_stream_continues () =
  let ve =
    V.of_engine @@ E.of_program ~views:L.views
      (L.database ~seed:3 ~families:60)
      L.program
  in
  Alcotest.(check int) "start-up derives from scratch" 1 (scratch ve);
  let next = ref 1000 in
  for i = 1 to 30 do
    let d =
      List.fold_left
        (fun d k ->
          incr next;
          D.insert d "Subfamily"
            (int_tuple [ 1 + ((7 * i) + k) mod 60; !next ]))
        D.empty
        (List.init (1 + (i mod 3)) Fun.id)
    in
    let v = ok_exn "commit" (V.commit_delta ve d) in
    if i mod 2 = 0 then
      ignore
        (ok_exn "closure cite" (V.cite_at ve v (L.query 1 (1 + (i mod 7)))));
    if i mod 3 = 0 then begin
      ignore (ok_exn "old closure cite" (V.cite_at ve (v / 2) (L.query 2 1)));
      ignore (ok_exn "old cite" (V.cite_at ve (v / 3) (L.query 0 1)))
    end;
    if i mod 5 = 0 then check_idb ve v
  done;
  (* versions long gone from the LRU continue from the lineage it does
     not bound *)
  Alcotest.(check bool) "v1 left the LRU" false
    (List.mem 1 (V.cached_versions ve));
  check_idb ve 1;
  check_idb ve 4;
  Alcotest.(check int) "only the start-up derivation ran from scratch" 1
    (scratch ve);
  let derivations = snd (C.Metrics.timer (V.metrics ve) "derive") in
  Alcotest.(check bool) "versions were derived" true (derivations > 20);
  Alcotest.(check int) "every other one continued" (derivations - 1)
    (continued ve);
  Alcotest.(check int) "insert-only: no stratum re-derived" 0 (rederived ve)

(* Four strata: Parent and Sub over Subfamily, Leaf over Sub and, under
   negation, Parent, and Member over Committee.  Each commit's
   re-derived strata are counted exactly. *)
let strata_program =
  Dc_cq.Program.parse_exn
    {|
  Parent(P) :- Subfamily(P,C);
  Sub(P,C) :- Subfamily(P,C);
  Sub(P,C) :- Subfamily(P,M), Sub(M,C);
  Leaf(P,C) :- Sub(P,C), not Parent(C);
  Member(F,N) :- Committee(F,N)
|}

let test_deleting_commit_rederives_its_strata () =
  let ve = V.of_engine @@ E.of_program (L.database ~seed:4 ~families:30) strata_program in
  let head_db () = R.Version_store.head_db (V.store ve) in
  let commit d =
    let v = ok_exn "commit" (V.commit_delta ve d) in
    let before = rederived ve and cont = continued ve in
    check_idb ve v;
    Alcotest.(check int) "continued" (cont + 1) (continued ve);
    rederived ve - before
  in
  let first rel =
    List.hd (R.Relation.tuples (R.Database.relation_exn (head_db ()) rel))
  in
  let edge = first "Subfamily" and member = first "Committee" in
  let parent = R.Tuple.get edge 0 in
  Alcotest.(check int) "an edge under an old parent continues every stratum"
    0 (commit (D.insert D.empty "Subfamily" (R.Tuple.make [ parent; int 500 ])));
  Alcotest.(check int) "an edge under a new parent re-derives Leaf, which \
                        negates Parent"
    1 (commit (D.insert D.empty "Subfamily" (int_tuple [ 600; 601 ])));
  Alcotest.(check int) "a deleted edge continues Parent, re-derives Sub \
                        and Leaf" 2
    (commit (D.delete D.empty "Subfamily" edge));
  Alcotest.(check int) "a deleted member continues Member" 0
    (commit (D.delete D.empty "Committee" member));
  Alcotest.(check int) "an inserted member continues Member" 0
    (commit (D.insert D.empty "Committee" member));
  Alcotest.(check int) "a change nothing reads re-derives nothing" 0
    (commit (delta_orexin ()));
  Alcotest.(check int) "only the start-up derivation ran from scratch" 1
    (scratch ve)

(* Rewriting plans depend on the view set alone, so every per-version
   engine shares them: across 20 commits, head cites and cites at
   versions the LRU has evicted (each a freshly built engine) cost one
   search per query shape. *)
let test_plans_shared_across_versions () =
  let ve = make ~capacity:2 () in
  let count k = C.Metrics.count (V.metrics ve) k in
  let landing k =
    parse (Printf.sprintf "Q(FName,Desc) :- Family(%d,FName,Desc)" k)
  and intro k = parse (Printf.sprintf "Q(Text) :- FamilyIntro(%d,Text)" k) in
  for i = 1 to 20 do
    let fid = 100 + i in
    let v =
      ok_exn "commit"
        (V.commit_delta ve
           (D.insert D.empty "Family"
              (tuple [ int fid; str (Printf.sprintf "F%d" i); str "D" ])))
    in
    ignore (ok_exn "head cite" (V.cite ve (landing fid)));
    ignore (ok_exn "head cite" (V.cite ve (intro fid)));
    ignore (ok_exn "cite_at" (V.cite_at ve (v / 2) (landing (fid - 1))))
  done;
  Alcotest.(check bool) "old versions were rebuilt" true
    (count C.Metrics.Key.version_cache_misses >= 10);
  Alcotest.(check int) "one search per shape" 2
    (count C.Metrics.Key.plan_cache_misses);
  Alcotest.(check int) "every other cite hits" 58
    (count C.Metrics.Key.plan_cache_hits)

(* A commit carries its relations' distinct counts across its delta:
   on curate's program, once the first head's landing and closure cites
   have counted the columns their plans read, 30 commits that insert
   families and delete committee rows, each followed by the same two
   cites at the new head, scan no relation again. *)
let test_commits_carry_distinct_counts () =
  let ve =
    V.of_engine @@ E.of_program ~views:L.views (L.database ~seed:5 ~families:200) L.program
  in
  let scans () = counter ve C.Metrics.Key.stats_column_scans in
  let landing f =
    parse
      (Printf.sprintf
         "L2(FName,Text) :- Family(%d,FName,Desc), FamilyIntro(%d,Text)" f f)
  and closure p =
    parse
      (Printf.sprintf
         "C1(Child,CName) :- Sub(%d,Child), Family(Child,CName,Desc)" p)
  in
  let cite_head i =
    ignore (ok_exn "landing cite" (V.cite ve (landing (1 + (i * 7 mod 200)))));
    ignore (ok_exn "closure cite" (V.cite ve (closure (1 + (i * 3 mod 40)))))
  in
  cite_head 0;
  let counted = scans () in
  Alcotest.(check bool) "the first head's cites counted columns" true
    (counted > 0);
  let members =
    ref
      (R.Relation.tuples
         (R.Database.relation_exn (R.Version_store.head_db (V.store ve))
            "Committee"))
  in
  for i = 1 to 30 do
    let fid = 1000 + i in
    let d =
      D.empty
      |> (fun d ->
           D.insert d "Family"
             (tuple [ int fid; str (Printf.sprintf "Fam%d" i); str "D" ]))
      |> (fun d -> D.insert d "FamilyIntro" (tuple [ int fid; str "intro" ]))
      |> (fun d -> D.insert d "Committee" (tuple [ int fid; str "Kim Neve" ]))
      |> fun d -> D.insert d "Subfamily" (int_tuple [ 1 + (i mod 40); fid ])
    in
    let d =
      match !members with
      | m :: rest when i mod 3 = 0 ->
          members := rest;
          D.delete d "Committee" m
      | _ -> d
    in
    ignore (ok_exn "commit" (V.commit_delta ve d));
    cite_head i;
    Alcotest.(check int)
      (Printf.sprintf "no relation rescanned after commit %d" i)
      counted (scans ())
  done

(* A registration reuses the rewriting plan the cite of its query
   shape computed: no new rewriting search, and a plan-cache hit. *)
let test_register_reuses_rewriting_plan () =
  let ve = make () in
  let count k = C.Metrics.count (V.metrics ve) k in
  ignore
    (ok_exn "cite" (V.cite ve (parse "Q(FName,Desc) :- Family(11,FName,Desc)")));
  let misses = count C.Metrics.Key.plan_cache_misses
  and hits = count C.Metrics.Key.plan_cache_hits in
  ok_exn "register"
    (V.register ve (parse "Q(FName,Desc) :- Family(12,FName,Desc)"));
  Alcotest.(check int) "no new search" misses
    (count C.Metrics.Key.plan_cache_misses);
  Alcotest.(check bool) "the registration hit the plan cache" true
    (count C.Metrics.Key.plan_cache_hits > hits)

let suite =
  [
    Alcotest.test_case "cite_at determinism across commits" `Quick
      test_cite_at_determinism;
    Alcotest.test_case "digest tampering fails verify" `Quick
      test_digest_tampering;
    Alcotest.test_case "commit failures are errors" `Quick test_commit_errors;
    Alcotest.test_case "LRU eviction keeps determinism" `Quick
      test_lru_eviction;
    Alcotest.test_case "registrations maintained across commits" `Quick
      test_registration_maintained;
    Alcotest.test_case "shared delta-application path" `Quick
      test_shared_delta_path;
    Alcotest.test_case "timestamps and store snapshots" `Quick
      test_timestamps_and_store;
    Alcotest.test_case "head engine agrees with cite" `Quick
      test_head_engine_agrees;
    Alcotest.test_case "failed maintenance logs nothing" `Quick
      test_failed_maintenance_logs_nothing;
    Alcotest.test_case "curate stream continues every derivation" `Quick
      test_curate_stream_continues;
    Alcotest.test_case "a deleting commit re-derives its strata" `Quick
      test_deleting_commit_rederives_its_strata;
    Alcotest.test_case "plans shared across versions" `Quick
      test_plans_shared_across_versions;
    Alcotest.test_case "register reuses the cite plan" `Quick
      test_register_reuses_rewriting_plan;
    Alcotest.test_case "commits carry distinct counts" `Quick
      test_commits_carry_distinct_counts;
  ]

