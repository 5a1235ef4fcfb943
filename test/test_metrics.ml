open Testutil
module C = Dc_citation
module M = Dc_citation.Metrics
module E = Dc_citation.Engine
module I = Dc_citation.Incremental
module R = Dc_relational
module D = Dc_relational.Delta

let q = parse

(* Containment-equivalent forms of the paper query Q. *)
let query_q = Dc_gtopdb.Paper_views.query_q
let q_renamed = q "Q(N) :- Family(I,N,D), FamilyIntro(I,T)"

let q_permuted =
  q "Q(FName) :- FamilyIntro(FID,Text), Family(FID,FName,Desc)"

(* Same core as Q, but with a redundant atom: a shape of its own, whose
   first cite runs a search. *)
let q_redundant =
  q "Q(FName) :- Family(FID,FName,Desc), Family(FID,FName,D2), FamilyIntro(FID,Text)"

let fresh_engine () = E.create (paper_db ()) Dc_gtopdb.Paper_views.all
let count e k = M.count (E.metrics e) k

let test_plan_cache_hit_on_equivalent () =
  let e = fresh_engine () in
  let r1 = E.cite e query_q in
  Alcotest.(check int) "first cite misses" 1 (count e M.Key.plan_cache_misses);
  Alcotest.(check int) "no hit yet" 0 (count e M.Key.plan_cache_hits);
  let cands = count e M.Key.rewriting_candidates in
  Alcotest.(check bool) "enumeration happened" true (cands > 0);
  let r2 = E.cite e q_renamed in
  Alcotest.(check int) "alpha-renamed repeat hits" 1
    (count e M.Key.plan_cache_hits);
  Alcotest.(check int) "no re-enumeration" cands
    (count e M.Key.rewriting_candidates);
  Alcotest.(check int) "same rewritings" (List.length r1.rewritings)
    (List.length r2.rewritings);
  ignore (E.cite e q_permuted);
  Alcotest.(check int) "permuted form hits" 2 (count e M.Key.plan_cache_hits);
  Alcotest.(check int) "candidates still unchanged" cands
    (count e M.Key.rewriting_candidates);
  let r3 = E.cite e q_redundant in
  Alcotest.(check int) "redundant form misses once" 2
    (count e M.Key.plan_cache_misses);
  let same_citations = List.equal C.Citation.equal in
  Alcotest.(check bool) "redundant form: Q's tuples and citations" true
    (List.equal
       (fun (x : E.tuple_citation) (y : E.tuple_citation) ->
         R.Tuple.equal x.tuple y.tuple
         && same_citations x.citations y.citations)
       r3.tuples r1.tuples
    && same_citations r3.result_citations r1.result_citations);
  let cands = count e M.Key.rewriting_candidates in
  ignore (E.cite e q_redundant);
  Alcotest.(check int) "redundant repeat hits" 3
    (count e M.Key.plan_cache_hits);
  Alcotest.(check int) "no new candidates" cands
    (count e M.Key.rewriting_candidates)

let test_plan_cache_survives_refresh () =
  let e = fresh_engine () in
  ignore (E.cite e query_q);
  let cands = count e M.Key.rewriting_candidates in
  let db' =
    D.apply (paper_db ())
      (D.insert D.empty "Family" (tuple [ int 30; str "Orexin"; str "O1" ]))
  in
  let e' = E.refresh e db' in
  ignore (E.cite e' query_q);
  Alcotest.(check int) "hit after refresh" 1
    (count e' M.Key.plan_cache_hits);
  Alcotest.(check int) "one miss total" 1 (count e' M.Key.plan_cache_misses);
  Alcotest.(check int) "no re-enumeration" cands
    (count e' M.Key.rewriting_candidates)

let test_plan_cache_survives_apply_delta () =
  let engine = fresh_engine () in
  let reg = I.register engine query_q in
  let misses = count engine M.Key.plan_cache_misses in
  let cands = count engine M.Key.rewriting_candidates in
  let delta =
    D.insert D.empty "Family" (tuple [ int 13; str "Calcitonin"; str "C3" ])
  in
  let reg = I.apply_delta reg delta in
  let e' = I.engine reg in
  ignore (E.cite e' query_q);
  Alcotest.(check int) "warm plan cache after delta" 1
    (count e' M.Key.plan_cache_hits);
  Alcotest.(check int) "no new miss" misses
    (count e' M.Key.plan_cache_misses);
  Alcotest.(check int) "no re-enumeration" cands
    (count e' M.Key.rewriting_candidates)

let test_different_view_set_is_cold () =
  let e1 = fresh_engine () in
  ignore (E.cite e1 query_q);
  let views' =
    List.filter
      (fun cv -> C.Citation_view.name cv <> "V1")
      Dc_gtopdb.Paper_views.all
  in
  let e2 = E.create (paper_db ()) views' in
  ignore (E.cite e2 query_q);
  Alcotest.(check int) "fresh view set starts cold" 0
    (count e2 M.Key.plan_cache_hits);
  Alcotest.(check int) "and misses once" 1
    (count e2 M.Key.plan_cache_misses)

(* Landing pages: one query shape, a different key each time.  Every
   key but the first reaches the plan of the first through its shape. *)
let test_landing_keys_share_one_plan () =
  let e = fresh_engine () in
  let landing k =
    ignore
      (E.cite e (q (Printf.sprintf "Q(FName,Desc) :- Family(%d,FName,Desc)" k)))
  in
  landing 1;
  let checks = count e M.Key.containment_checks in
  for k = 2 to 1000 do
    landing k
  done;
  Alcotest.(check int) "one miss for the shape" 1
    (count e M.Key.plan_cache_misses);
  Alcotest.(check int) "every other key hits" 999
    (count e M.Key.plan_cache_hits);
  Alcotest.(check int) "no containment check on a hit" checks
    (count e M.Key.containment_checks)

let test_counters_monotonic () =
  let e = fresh_engine () in
  let snapshot () = List.map (count e) M.Key.all in
  let le a b = List.for_all2 (fun x y -> x <= y) a b in
  let s0 = snapshot () in
  ignore (E.cite e query_q);
  let s1 = snapshot () in
  ignore (E.cite e q_renamed);
  let s2 = snapshot () in
  ignore (E.cite e q_redundant);
  let s3 = snapshot () in
  Alcotest.(check bool) "s0 <= s1" true (le s0 s1);
  Alcotest.(check bool) "s1 <= s2" true (le s1 s2);
  Alcotest.(check bool) "s2 <= s3" true (le s2 s3)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_to_json_shape () =
  let e = fresh_engine () in
  ignore (E.cite e query_q);
  let j = M.to_json (E.metrics e) in
  Alcotest.(check bool) "counters object" true (contains j "{\"counters\":{");
  Alcotest.(check bool) "timers object" true (contains j ",\"timers\":{");
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true
        (contains j (Printf.sprintf "%S:" k)))
    M.Key.all;
  Alcotest.(check bool) "timer fields" true
    (contains j "\"ms\":" && contains j "\"calls\":");
  (* one line, balanced braces *)
  Alcotest.(check bool) "single line" true (not (String.contains j '\n'))

(* The leaf cache canonicalizes the parameter order: two leaves naming
   the same (view, valuation) in different orders share one entry. *)
let test_leaf_key_param_order () =
  let cv =
    C.Citation_view.make_exn
      ~view:(q "lambda FID, FName. V4(FID,FName) :- Family(FID,FName,Desc)")
      ~citations:[ q "lambda FID. CV4(FID,PName) :- Committee(FID,PName)" ]
      ()
  in
  let e = E.create (paper_db ()) [ cv ] in
  let params = [ ("FID", int 11); ("FName", str "Calcitonin") ] in
  let c1 = E.resolve_leaf e { view = "V4"; params } in
  Alcotest.(check int) "first resolution misses" 1
    (count e M.Key.leaf_cache_misses);
  let c2 = E.resolve_leaf e { view = "V4"; params = List.rev params } in
  Alcotest.(check int) "permuted params hit" 1
    (count e M.Key.leaf_cache_hits);
  Alcotest.(check int) "no second miss" 1 (count e M.Key.leaf_cache_misses);
  Alcotest.(check bool) "same citation" true (C.Citation.equal c1 c2)

(* Warm cites are served by the compiled-plan cache: the stored plans
   keep their index handles, so repeats fire [eval_plan_hits] rather
   than index-cache events. *)
let test_eval_cache_counters () =
  let e = fresh_engine () in
  ignore (E.cite e query_q);
  let builds = count e M.Key.eval_index_builds in
  let compiles = count e M.Key.plan_compiles in
  Alcotest.(check bool) "indexes built" true (builds > 0);
  Alcotest.(check bool) "plans compiled" true (compiles > 0);
  let timer_s, timer_calls = M.timer (E.metrics e) "plan_compile" in
  Alcotest.(check int) "plan_compile timer tracks compiles" compiles
    timer_calls;
  Alcotest.(check bool) "plan_compile timer accumulated" true (timer_s >= 0.);
  ignore (E.cite e query_q);
  Alcotest.(check bool) "warm plans reused" true
    (count e M.Key.eval_plan_hits > 0);
  Alcotest.(check int) "no recompilation when warm" compiles
    (count e M.Key.plan_compiles);
  Alcotest.(check int) "no index rebuild when warm" builds
    (count e M.Key.eval_index_builds)

(* Every lower layer records into the registries itself.  One of each
   instrumented operation under a fresh scope must reach every counter
   and timer it owns. *)
let test_lower_layers_record () =
  let m = M.create () in
  M.with_sink m (fun () ->
      let db = rs_db () in
      let cache = Dc_cq.Eval.make_cache () in
      let join = q "Q(A,C) :- R(A,B), S(B,C)" in
      ignore (Dc_cq.Eval.run ~cache db join);
      ignore (Dc_cq.Eval.run ~cache db join);
      let tc =
        Dc_cq.Stratify.run_exn
          (List.map Dc_cq.Parser.parse_rule_exn
             [ "T(X,Y) :- R(X,Y)"; "T(X,Z) :- R(X,Y), T(Y,Z)" ])
      in
      ignore (Dc_cq.Seminaive.run db tc);
      let module Rw = Dc_rewriting in
      ignore
        (Rw.Rewrite.search
           (Rw.View.Set.of_list [ Rw.View.of_query (q "V(A,B) :- R(A,B)") ])
           (q "Q(A,B) :- R(A,B)"));
      (* a fresh store writes snapshot 0 and fsyncs each [Always] commit
         append; reopening it loads that snapshot and replays the WAL *)
      Test_storage.with_dir @@ fun dir ->
      let module St = Dc_storage.Store in
      let st, _ = Test_storage.ok "open" (St.open_ ~dir ~db ()) in
      Test_storage.ok "append"
        (St.append_commit st ~version:1 ~at:2
           (D.insert D.empty "R" (int_tuple [ 4; 4 ])));
      St.close st;
      let st, _ = Test_storage.ok "reopen" (St.open_ ~dir ~db ()) in
      St.close st);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " recorded") true (M.count m k > 0))
    M.Key.
      [
        eval_cache_hits;
        eval_cache_misses;
        containment_checks;
        rewriting_verified;
        rewriting_kept;
        datalog_fixpoints;
        datalog_iterations;
        snapshots_written;
        recovery_replayed_deltas;
      ];
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " timed") true (snd (M.timer m t) > 0))
    [
      "datalog_fixpoint";
      "wal_append";
      "wal_fsync";
      "snapshot_write";
      "snapshot_load";
      "recovery_replay";
    ]

(* ------------------------------------------------------------------ *)
(* Shared cells: totals across domains and threads equal the sequential
   oracle, with_sink scoping, and reset.                               *)

let test_multi_domain_aggregation () =
  (* K domains each bump the same counters n times into one registry;
     after joining, the total must equal the sequential total exactly:
     the shared cells lose nothing. *)
  let m = M.create () in
  let k = 4 and n = 10_000 in
  let worker () =
    for i = 1 to n do
      M.incr m "hits";
      if i mod 2 = 0 then M.incr ~by:3 m "weighted";
      M.add_time m "work" 0.001
    done
  in
  let spawned = List.init (k - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  Alcotest.(check int) "hits = k * n" (k * n) (M.count m "hits");
  Alcotest.(check int) "weighted = k * (n/2) * 3"
    (k * (n / 2) * 3)
    (M.count m "weighted");
  let total_s, calls = M.timer m "work" in
  Alcotest.(check int) "timer calls aggregate" (k * n) calls;
  Alcotest.(check bool) "timer total aggregates" true
    (Float.abs (total_s -. (0.001 *. float_of_int (k * n))) < 1e-6)

let test_record_max_across_domains () =
  let m = M.create () in
  let depths = [ 3; 17; 5; 9 ] in
  let mark d = M.with_sink m (fun () -> M.record_max "depth" d) in
  let spawned = List.map (fun d -> Domain.spawn (fun () -> mark d)) depths in
  List.iter Domain.join spawned;
  (* high-water marks aggregate by max, not by sum *)
  Alcotest.(check int) "max across domains" 17 (M.count m "depth");
  mark 4;
  Alcotest.(check int) "lower mark does not raise it" 17 (M.count m "depth")

(* The systhreads of one domain share its scopes: while any of them is
   inside [with_sink m], what each records reaches [m], and entering or
   leaving together loses no scope and strands none. *)
let test_with_sink_shared_by_threads () =
  let m = M.create () in
  let k = 4 and n = 10_000 in
  let worker () =
    M.with_sink m (fun () ->
        for _ = 1 to n do
          M.record "shared";
          Thread.yield ()
        done)
  in
  List.iter Thread.join (List.init k (fun _ -> Thread.create worker ()));
  Alcotest.(check int) "every event reached the registry" (k * n)
    (M.count m "shared");
  M.record "shared";
  Alcotest.(check int) "no scope is left open" (k * n) (M.count m "shared")

let test_with_sink_nesting_and_dedup () =
  let a = M.create () and b = M.create () in
  M.with_sink a (fun () ->
      M.record "ev";
      M.with_sink b (fun () ->
          M.record "ev";
          (* re-pushing a registry already in scope must not double-count *)
          M.with_sink a (fun () -> M.record "ev")));
  Alcotest.(check int) "outer sink saw all three" 3 (M.count a "ev");
  Alcotest.(check int) "inner sink saw two" 2 (M.count b "ev")

let test_with_sink_is_domain_local () =
  (* a scope opened here must not leak into a spawned domain *)
  let m = M.create () in
  M.with_sink m (fun () ->
      let d = Domain.spawn (fun () -> M.record "leak") in
      Domain.join d);
  Alcotest.(check int) "a spawned domain does not inherit scopes" 0
    (M.count m "leak")

let test_with_sink_per_domain () =
  (* ...so a domain that records opens its own scope, and its events
     reach the registry through its own sink *)
  let m = M.create () in
  let spawned =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            M.with_sink m (fun () -> for _ = 1 to 10 do M.record "own" done)))
  in
  List.iter Domain.join spawned;
  Alcotest.(check int) "every domain's events reached the sink" 30
    (M.count m "own");
  M.record "own";
  Alcotest.(check int) "no scope, no events" 30 (M.count m "own")

let test_reset_clears_every_sink () =
  let m = M.create () in
  let worker () = for _ = 1 to 100 do M.incr m "r" done in
  let spawned = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  Alcotest.(check int) "before reset" 400 (M.count m "r");
  M.reset m;
  Alcotest.(check int) "after reset" 0 (M.count m "r");
  let _, calls = M.timer m "work" in
  Alcotest.(check int) "timers cleared too" 0 calls;
  M.incr m "r";
  Alcotest.(check int) "still usable after reset" 1 (M.count m "r")

let test_monotonic_clock () =
  let t0 = Dc_clock.Monotonic.now_s () in
  let n0 = Dc_clock.Monotonic.now_ns () in
  (* burn a little time without sleeping *)
  let acc = ref 0 in
  for i = 1 to 1_000_000 do acc := !acc + i done;
  ignore (Sys.opaque_identity !acc);
  let t1 = Dc_clock.Monotonic.now_s () in
  let n1 = Dc_clock.Monotonic.now_ns () in
  Alcotest.(check bool) "seconds never go backwards" true (t1 >= t0);
  Alcotest.(check bool) "nanoseconds never go backwards" true
    (Int64.compare n1 n0 >= 0);
  Alcotest.(check bool) "elapsed_ms non-negative" true
    (Dc_clock.Monotonic.elapsed_ms t0 >= 0.)

(* A bulk cite whose plan scans [Family] first and leads its head with
   [FName] (column 1) iterates a sorted copy of the extent, built once
   per relation value: repeats at one version and a second engine over
   the same value reuse it, and a head in column-prefix order needs
   none. *)
let test_scan_orders_counter () =
  let db = Dc_gtopdb.Generator.generate ~seed:3 () in
  let views = Dc_gtopdb.Paper_views.all in
  let names = q "N(FName,FID) :- Family(FID,FName,Desc)" in
  let whole = q "S3(FID,FName,Desc) :- Family(FID,FName,Desc)" in
  let e = E.create db views in
  ignore (E.cite e whole);
  Alcotest.(check int) "column-prefix head: no copy" 0
    (count e M.Key.eval_scan_orders);
  let first = E.cite e names in
  let again = E.cite e names in
  Alcotest.(check int) "repeated bulk cite: one copy" 1
    (count e M.Key.eval_scan_orders);
  Alcotest.(check bool) "same answers" true
    (first.tuples <> []
    && List.equal
         (fun (a : E.tuple_citation) (b : E.tuple_citation) ->
           R.Tuple.equal a.tuple b.tuple)
         first.tuples again.tuples);
  let e2 = E.create db views in
  ignore (E.cite e2 names);
  Alcotest.(check int) "second engine, same relation value: no copy" 0
    (count e2 M.Key.eval_scan_orders)

let suite =
  [
    Alcotest.test_case "plan cache: equivalent forms hit" `Quick
      test_plan_cache_hit_on_equivalent;
    Alcotest.test_case "plan cache survives refresh" `Quick
      test_plan_cache_survives_refresh;
    Alcotest.test_case "plan cache survives apply_delta" `Quick
      test_plan_cache_survives_apply_delta;
    Alcotest.test_case "different view set starts cold" `Quick
      test_different_view_set_is_cold;
    Alcotest.test_case "counters monotonic" `Quick test_counters_monotonic;
    Alcotest.test_case "to_json shape" `Quick test_to_json_shape;
    Alcotest.test_case "leaf key canonicalizes param order" `Quick
      test_leaf_key_param_order;
    Alcotest.test_case "eval cache counters" `Quick test_eval_cache_counters;
    Alcotest.test_case "lower layers record directly" `Quick
      test_lower_layers_record;
    Alcotest.test_case "sinks: multi-domain aggregation oracle" `Quick
      test_multi_domain_aggregation;
    Alcotest.test_case "sinks: record_max across domains" `Quick
      test_record_max_across_domains;
    Alcotest.test_case "with_sink: nesting and dedup" `Quick
      test_with_sink_nesting_and_dedup;
    Alcotest.test_case "with_sink: domain-local" `Quick
      test_with_sink_is_domain_local;
    Alcotest.test_case "with_sink: opened per domain" `Quick
      test_with_sink_per_domain;
    Alcotest.test_case "reset clears every sink" `Quick
      test_reset_clears_every_sink;
    Alcotest.test_case "monotonic clock sanity" `Quick test_monotonic_clock;
    Alcotest.test_case "1000 landing keys, one plan" `Quick
      test_landing_keys_share_one_plan;
    Alcotest.test_case "head-ordered scans: one copy per value" `Quick
      test_scan_orders_counter;
    Alcotest.test_case "with_sink: shared by a domain's threads" `Quick
      test_with_sink_shared_by_threads;
  ]

