(* The multicore layer: core detection, rewriting searches run from
   many domains at once (byte-identical to sequential), one engine
   cited from many domains, the domain-backed worker pool, and the
   domain-parallel server.

   DOMAINS (env var, default 2) picks the domain count so CI can run
   the same suite at 1, 2 or 4 domains. *)

module C = Dc_citation
module Cq = Dc_cq
module Rw = Dc_rewriting
module W = Dc_server.Worker_pool

let domains =
  match Sys.getenv_opt "DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 2)
  | None -> 2

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

(* [f i] on [max 2 domains] domains at once, the caller being one. *)
let on_domains f =
  let n = max 2 domains in
  let spawned =
    List.init (n - 1) (fun i -> Domain.spawn (fun () -> f (i + 1)))
  in
  let here = f 0 in
  here :: List.map Domain.join spawned

(* ------------------------------------------------------------------ *)
(* Core detection                                                      *)

let test_core_detection () =
  let cores = W.available_cores () in
  Alcotest.(check bool) "at least one core" true (cores >= 1);
  Alcotest.(check int) "effective 1 = 1" 1 (W.effective ~requested:1);
  Alcotest.(check int) "effective clamps to cores" cores
    (W.effective ~requested:(cores + 64));
  match W.effective ~requested:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "requested 0 must be rejected"

(* ------------------------------------------------------------------ *)
(* Rewriting from many domains: byte-identical to sequential           *)

let catalog_views n =
  Rw.View.Set.of_list
    (List.map C.Citation_view.view
       (Dc_gtopdb.Views_catalog.synthetic ~count:n
       @ [ Dc_gtopdb.Views_catalog.v_committee ]))

(* Server worker domains search plan-cache misses concurrently: every
   domain running the same search at once must get the sequential
   answer. *)
let same_rewritings ?(strategy = Rw.Rewrite.Minicon) views q =
  let seq = Rw.Rewrite.search ~strategy views q in
  List.for_all
    (fun (par : Rw.Rewrite.outcome) ->
      List.map Cq.Query.to_string seq.queries
      = List.map Cq.Query.to_string par.queries
      && seq.stats = par.stats)
    (on_domains (fun _ -> Rw.Rewrite.search ~strategy views q))

let test_rewriting_deterministic () =
  let views = catalog_views 12 in
  List.iter
    (fun src ->
      let q = Cq.Parser.parse_query_exn src in
      Alcotest.(check bool)
        (Printf.sprintf "parallel = sequential for %s" src)
        true
        (same_rewritings views q))
    [
      "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName), \
       FamilyIntro(FID,Text)";
      "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)";
      "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
      "Q(X) :- Family(X,N,D)";
    ]

let test_rewriting_deterministic_strategies () =
  let views = catalog_views 8 in
  let q =
    Cq.Parser.parse_query_exn
      "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName), \
       FamilyIntro(FID,Text)"
  in
  List.iter
    (fun (name, strategy) ->
      Alcotest.(check bool) name true (same_rewritings ~strategy views q))
    [
      ("naive", Rw.Rewrite.Naive);
      ("bucket", Rw.Rewrite.Bucket);
      ("minicon", Rw.Rewrite.Minicon);
    ]

(* Property-style over the GtoPdb workload generator: any generated
   join query rewrites identically on every domain. *)
let test_rewriting_deterministic_workload =
  qtest ~count:25 "parallel = sequential over generated workload"
    QCheck.(int_bound 1000)
    (fun seed ->
      let views = catalog_views 6 in
      List.for_all
        (fun q -> same_rewritings views q)
        (Dc_gtopdb.Workload.generate ~seed ~count:4))

(* One engine, many domains                                            *)

let small_db = Dc_gtopdb.Generator.generate ~seed:11 ()

let results_agree (a : C.Engine.result) (b : C.Engine.result) =
  C.Cite_expr.equal a.result_expr b.result_expr
  && List.length a.tuples = List.length b.tuples
  && a.complete = b.complete
  && List.length a.result_citations = List.length b.result_citations
  && List.for_all2 C.Citation.equal a.result_citations b.result_citations

let batch_queries () =
  Dc_gtopdb.Paper_views.query_q :: Dc_gtopdb.Workload.generate ~seed:3 ~count:11

(* Every domain cites one engine — a fresh one, then refreshes whose
   data cells are still empty, so the domains also first-force them
   together — and gets what a sequential cite on a separate engine
   over the same database gets. *)
let test_domains_agree () =
  (* every rewriting is evaluated, so per-family citations (whose
     leaves differ between the two databases) are resolved too *)
  let create db =
    C.Engine.create ~selection:`All db Dc_gtopdb.Paper_views.all
  in
  let queries = batch_queries () in
  let other_db = Dc_gtopdb.Generator.generate ~seed:12 () in
  let engine = create small_db in
  List.iter
    (fun (label, eng, db) ->
      let expected = List.map (C.Engine.cite (create db)) queries in
      let per_domain =
        on_domains (fun i ->
            (* each domain starts at a different query *)
            let n = List.length queries in
            List.init n (fun k ->
                let j = (k + i) mod n in
                (j, C.Engine.cite eng (List.nth queries j))))
      in
      List.iteri
        (fun i results ->
          List.iter
            (fun (j, r) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: domain %d, query %d agrees" label i j)
                true
                (results_agree (List.nth expected j) r))
            results)
        per_domain)
    [
      ("fresh", engine, small_db);
      ("refreshed, same data", C.Engine.refresh engine small_db, small_db);
      ("refreshed, other data", C.Engine.refresh engine other_db, other_db);
    ]

(* A batch split into round-robin chunks, one job per chunk on the
   domain-backed worker pool, cited through one engine, equals the
   sequential citations query by query. *)
let test_cite_batch_matches_sequential () =
  let queries = batch_queries () in
  let expected =
    List.map
      (C.Engine.cite (C.Engine.create small_db Dc_gtopdb.Paper_views.all))
      queries
  in
  let engine = C.Engine.create small_db Dc_gtopdb.Paper_views.all in
  let width = max 2 domains in
  let pool = W.create ~domains:true ~workers:width ~queue_capacity:width () in
  let got = Array.make (List.length queries) None in
  let indexed = List.mapi (fun i q -> (i, q)) queries in
  for c = 0 to width - 1 do
    let chunk = List.filteri (fun i _ -> i mod width = c) indexed in
    match
      W.submit pool (fun () ->
          List.iter (fun (i, q) -> got.(i) <- Some (C.Engine.cite engine q)) chunk)
    with
    | W.Accepted -> ()
    | _ -> Alcotest.fail "submit refused"
  done;
  (* shutdown drains every accepted job and joins the workers *)
  W.shutdown pool;
  List.iteri
    (fun i e ->
      match got.(i) with
      | Some g ->
          Alcotest.(check bool)
            (Printf.sprintf "batch result %d agrees" i)
            true (results_agree e g)
      | None -> Alcotest.failf "batch result %d missing" i)
    expected

(* Multi-domain stress on ONE engine: domains hammer it at once, each
   through its own caches; results must stay correct. *)
let test_shared_engine_stress () =
  let engine = C.Engine.create small_db Dc_gtopdb.Paper_views.all in
  let queries = batch_queries () in
  let expected = List.map (C.Engine.cite engine) queries in
  let worker () =
    List.for_all2
      (fun q e -> results_agree e (C.Engine.cite engine q))
      queries expected
  in
  let spawned = List.init (max 2 domains) (fun _ -> Domain.spawn worker) in
  let ok_here = worker () in
  let oks = List.map Domain.join spawned in
  Alcotest.(check bool) "all domains got identical results" true
    (ok_here && List.for_all Fun.id oks)

(* ------------------------------------------------------------------ *)
(* Domain-backed worker pool                                           *)

let test_worker_pool_domains () =
  let pool =
    W.create ~domains:true ~workers:(max 2 domains) ~queue_capacity:64 ()
  in
  let hits = Atomic.make 0 in
  (* a raising job is logged and swallowed, not worker-fatal *)
  (match W.submit pool (fun () -> failwith "job boom") with
  | W.Accepted -> ()
  | _ -> Alcotest.fail "submit refused");
  for _ = 1 to 32 do
    match W.submit pool (fun () -> Atomic.incr hits) with
    | W.Accepted -> ()
    | _ -> Alcotest.fail "submit refused"
  done;
  W.shutdown pool;
  Alcotest.(check int) "every job ran despite the failure" 32 (Atomic.get hits)

(* ------------------------------------------------------------------ *)
(* Domain-parallel server                                              *)

let test_server_with_domains () =
  let engine =
    C.Engine.create
      (Dc_gtopdb.Paper_views.example_database ())
      Dc_gtopdb.Paper_views.all
  in
  let config =
    {
      Dc_server.Server.default_config with
      port = 0;
      domains = max 2 domains;
    }
  in
  let server = Dc_server.Server.start ~config engine in
  Fun.protect ~finally:(fun () -> Dc_server.Server.stop server) @@ fun () ->
  let stats =
    Test_server.drive
      ~port:(Dc_server.Server.port server)
      ~clients:4 ~requests_per_client:25
      [
        "CITE Q(N) :- Family(F,N,D)";
        "CITE Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
        "HEALTH";
      ]
  in
  Alcotest.(check int) "no errors across domains" 0 stats.errors;
  Alcotest.(check int) "all requests answered" 100 stats.answered

let suite =
  [
    Alcotest.test_case "pool: core detection and clamping" `Quick
      test_core_detection;
    Alcotest.test_case "rewriting: parallel byte-identical" `Quick
      test_rewriting_deterministic;
    Alcotest.test_case "rewriting: all strategies" `Quick
      test_rewriting_deterministic_strategies;
    test_rewriting_deterministic_workload;
    Alcotest.test_case "one engine: domains agree with sequential" `Quick
      test_domains_agree;
    Alcotest.test_case "one engine: chunked batch = sequential" `Quick
      test_cite_batch_matches_sequential;
    Alcotest.test_case "shared engine: multi-domain stress" `Quick
      test_shared_engine_stress;
    Alcotest.test_case "worker pool: domain backend" `Quick
      test_worker_pool_domains;
    Alcotest.test_case "server: domains > 1" `Quick test_server_with_domains;
  ]
