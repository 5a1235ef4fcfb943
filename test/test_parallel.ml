(* The multicore layer: Domain_pool fan-out, parallel rewriting
   determinism (byte-identical to sequential), one engine cited from
   many domains, the domain-backed worker pool, and the domain-parallel server.

   DOMAINS (env var, default 2) picks the pool width so CI can run the
   same suite at 1, 2 or 4 domains. *)

module C = Dc_citation
module Cq = Dc_cq
module Rw = Dc_rewriting
module P = Dc_parallel.Domain_pool

let domains =
  match Sys.getenv_opt "DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 2)
  | None -> 2

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Domain_pool                                                         *)

let test_chunk_props =
  qtest ~count:200 "chunk: concat inverse, balanced, never empty"
    QCheck.(pair (list small_int) (int_range 1 10))
    (fun (xs, k) ->
      let chunks = P.chunk ~chunks:k xs in
      List.concat chunks = xs
      && List.for_all (fun c -> c <> []) chunks
      && List.length chunks <= k
      &&
      let sizes = List.map List.length chunks in
      match (sizes, xs) with
      | [], [] -> true
      | [], _ -> false
      | s, _ ->
          List.fold_left max 0 s - List.fold_left min max_int s <= 1)

(* [clamp:false]: these tests exercise the cross-domain machinery
   itself, so they must keep the requested width even on a host with
   fewer cores (where a clamped pool would degrade to sequential and
   test nothing). *)
let with_test_pool f = P.with_pool ~clamp:false ~domains f

let test_parallel_map_matches_map =
  qtest ~count:100 "parallel_map = List.map"
    QCheck.(list small_int)
    (fun xs ->
      with_test_pool (fun pool ->
          P.parallel_map pool (fun x -> (x * 7919) mod 101) xs
          = List.map (fun x -> (x * 7919) mod 101) xs))

let test_parallel_fold () =
  with_test_pool @@ fun pool ->
  let xs = List.init 1000 Fun.id in
  let sum =
    P.parallel_fold pool ~fold:(fun acc x -> acc + x) ~init:0 ~merge:( + ) xs
  in
  Alcotest.(check int) "sum 0..999" 499_500 sum;
  Alcotest.(check int)
    "empty fold is init" 42
    (P.parallel_fold pool ~fold:( + ) ~init:42 ~merge:( + ) [])

let test_run_all_order_and_reuse () =
  with_test_pool @@ fun pool ->
  (* results come back in input order, across repeated fan-outs *)
  for round = 1 to 20 do
    let thunks = List.init 13 (fun i () -> (round * 100) + i) in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d in order" round)
      (List.init 13 (fun i -> (round * 100) + i))
      (P.run_all pool thunks)
  done

let test_exception_propagates () =
  with_test_pool @@ fun pool ->
  (match
     P.parallel_map pool
       (fun x -> if x = 7 then failwith "boom" else x)
       (List.init 16 Fun.id)
   with
  | _ -> Alcotest.fail "expected Failure to propagate"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
  (* the pool survives a failed fan-out *)
  Alcotest.(check (list int))
    "pool still works" [ 2; 4; 6 ]
    (P.parallel_map pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_chunk_min_chunk =
  qtest ~count:200 "chunk: min_chunk caps the chunk count"
    QCheck.(triple (list small_int) (int_range 1 10) (int_range 1 8))
    (fun (xs, k, mc) ->
      let chunks = P.chunk ~min_chunk:mc ~chunks:k xs in
      let n = List.length xs in
      List.concat chunks = xs
      && List.for_all (fun c -> c <> []) chunks
      && List.length chunks <= k
      && List.length chunks <= max 1 (n / mc)
      && (n < mc || List.for_all (fun c -> List.length c >= mc) chunks)
      && (n = 0 || n >= mc || List.length chunks = 1))

let test_core_detection () =
  let cores = P.available_cores () in
  Alcotest.(check bool) "at least one core" true (cores >= 1);
  Alcotest.(check int) "effective 1 = 1" 1 (P.effective ~requested:1);
  Alcotest.(check int) "effective clamps to cores" cores
    (P.effective ~requested:(cores + 64));
  (match P.effective ~requested:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "requested 0 must be rejected");
  (* a clamped pool never exceeds the core count; an unclamped one
     keeps the requested width *)
  P.with_pool ~domains:(cores + 8) (fun pool ->
      Alcotest.(check bool) "clamped pool size <= cores" true
        (P.size pool <= cores));
  P.with_pool ~clamp:false ~domains:2 (fun pool ->
      Alcotest.(check int) "unclamped pool keeps width" 2 (P.size pool))

let test_shutdown_degrades () =
  let pool = P.create ~clamp:false ~domains () in
  P.shutdown pool;
  P.shutdown pool;
  (* idempotent *)
  Alcotest.(check (list int))
    "post-shutdown fan-out runs in the caller" [ 1; 4; 9; 16 ]
    (P.parallel_map pool (fun x -> x * x) [ 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Parallel rewriting: byte-identical to sequential                    *)

let catalog_views n =
  Rw.View.Set.of_list
    (List.map C.Citation_view.view
       (Dc_gtopdb.Views_catalog.synthetic ~count:n
       @ [ Dc_gtopdb.Views_catalog.v_committee ]))

(* [min_parallel:0] forces the fan-out even for tiny candidate sets:
   the point is to compare the parallel path against the sequential
   one, not to let the smallness gate pick sequential for both. *)
let same_rewritings ?(strategy = Rw.Rewrite.Minicon) pool views q =
  let seq = Rw.Rewrite.search ~strategy views q in
  let par = Rw.Rewrite.search ~strategy ~pool ~min_parallel:0 views q in
  List.map Cq.Query.to_string seq.queries
  = List.map Cq.Query.to_string par.queries
  && seq.stats = par.stats

let test_rewriting_deterministic () =
  with_test_pool @@ fun pool ->
  let views = catalog_views 12 in
  List.iter
    (fun src ->
      let q = Cq.Parser.parse_query_exn src in
      Alcotest.(check bool)
        (Printf.sprintf "parallel = sequential for %s" src)
        true
        (same_rewritings pool views q))
    [
      "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName), \
       FamilyIntro(FID,Text)";
      "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)";
      "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
      "Q(X) :- Family(X,N,D)";
    ]

let test_rewriting_deterministic_strategies () =
  with_test_pool @@ fun pool ->
  let views = catalog_views 8 in
  let q =
    Cq.Parser.parse_query_exn
      "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName), \
       FamilyIntro(FID,Text)"
  in
  List.iter
    (fun (name, strategy) ->
      Alcotest.(check bool) name true (same_rewritings ~strategy pool views q))
    [
      ("naive", Rw.Rewrite.Naive);
      ("bucket", Rw.Rewrite.Bucket);
      ("minicon", Rw.Rewrite.Minicon);
    ]

(* Property-style over the GtoPdb workload generator: any generated
   join query rewrites identically with and without a pool. *)
let test_rewriting_deterministic_workload =
  qtest ~count:25 "parallel = sequential over generated workload"
    QCheck.(int_bound 1000)
    (fun seed ->
      with_test_pool (fun pool ->
          let views = catalog_views 6 in
          List.for_all
            (fun q -> same_rewritings pool views q)
            (Dc_gtopdb.Workload.generate ~seed ~count:4)))

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

(* [f i] on [max 2 domains] domains at once, the caller being one. *)
let on_domains f =
  let n = max 2 domains in
  let spawned =
    List.init (n - 1) (fun i -> Domain.spawn (fun () -> f (i + 1)))
  in
  let here = f 0 in
  here :: List.map Domain.join spawned

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

(* A batch split into chunks and cited on the pool's domains through one
   engine equals the sequential citations, in input order. *)
let test_cite_batch_matches_sequential () =
  let queries = batch_queries () in
  let expected =
    List.map
      (C.Engine.cite (C.Engine.create small_db Dc_gtopdb.Paper_views.all))
      queries
  in
  with_test_pool @@ fun pool ->
  let engine = C.Engine.create small_db Dc_gtopdb.Paper_views.all in
  let got =
    P.run_all pool
      (List.map
         (fun qs () -> List.map (C.Engine.cite engine) qs)
         (P.chunk ~chunks:(P.size pool) queries))
    |> List.concat
  in
  Alcotest.(check int) "one result per query" (List.length queries)
    (List.length got);
  List.iteri
    (fun i (e, g) ->
      Alcotest.(check bool)
        (Printf.sprintf "batch result %d agrees" i)
        true (results_agree e g))
    (List.combine expected got)

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
    Dc_server.Worker_pool.create ~domains:true ~workers:(max 2 domains)
      ~queue_capacity:64 ()
  in
  let hits = Atomic.make 0 in
  (* a raising job is logged and swallowed, not worker-fatal *)
  (match Dc_server.Worker_pool.submit pool (fun () -> failwith "job boom") with
  | Dc_server.Worker_pool.Accepted -> ()
  | _ -> Alcotest.fail "submit refused");
  for _ = 1 to 32 do
    match
      Dc_server.Worker_pool.submit pool (fun () -> Atomic.incr hits)
    with
    | Dc_server.Worker_pool.Accepted -> ()
    | _ -> Alcotest.fail "submit refused"
  done;
  Dc_server.Worker_pool.shutdown pool;
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
    Alcotest.test_case "pool: fold" `Quick test_parallel_fold;
    Alcotest.test_case "pool: run_all order + reuse" `Quick
      test_run_all_order_and_reuse;
    Alcotest.test_case "pool: exception propagation" `Quick
      test_exception_propagates;
    Alcotest.test_case "pool: shutdown degrades to caller" `Quick
      test_shutdown_degrades;
    test_chunk_props;
    test_chunk_min_chunk;
    Alcotest.test_case "pool: core detection and clamping" `Quick
      test_core_detection;
    test_parallel_map_matches_map;
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
