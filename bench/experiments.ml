(* The experiment drivers E1-E10 (see DESIGN.md, "Experiment index").
   Each prints one table; EXPERIMENTS.md records the expected shapes. *)

module C = Dc_citation
module Cq = Dc_cq
module R = Dc_relational
module Rw = Dc_rewriting
module G = Dc_gtopdb.Generator
open Util

let families n = G.scale G.default_config ~families:n

(* ------------------------------------------------------------------ *)
(* E1: the paper's worked example, as a correctness table.             *)

let e1 () =
  hr "E1  Worked example (paper section 2) — correctness";
  let db = Dc_gtopdb.Paper_views.example_database () in
  let engine_all =
    C.Engine.create ~selection:`All
      ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
      db Dc_gtopdb.Paper_views.all
  in
  let result = C.Engine.cite engine_all Dc_gtopdb.Paper_views.query_q in
  let check name expected actual =
    row [ 44; 6; 60 ]
      [ name; (if expected = actual then "PASS" else "FAIL"); actual ]
  in
  header [ 44; 6; 60 ] [ "property"; "ok"; "observed" ];
  check "number of minimal equivalent rewritings" "2"
    (string_of_int (List.length result.rewritings));
  let rewriting_views =
    List.map
      (fun r -> String.concat "+" (Cq.Query.predicates r))
      result.rewritings
    |> List.sort String.compare |> String.concat " ; "
  in
  check "rewritings use" "V1+V3 ; V2+V3" rewriting_views;
  let calcitonin =
    List.find
      (fun (tc : C.Engine.tuple_citation) ->
        R.Tuple.equal tc.tuple (R.Tuple.make [ R.Value.Str "Calcitonin" ]))
      result.tuples
  in
  let expected_expr =
    C.Cite_expr.(
      alt_r
        [
          alt
            [
              joint
                [ leaf ~view:"V1" ~params:[ ("FID", R.Value.Int 11) ]; leaf ~view:"V3" ~params:[] ];
              joint
                [ leaf ~view:"V1" ~params:[ ("FID", R.Value.Int 12) ]; leaf ~view:"V3" ~params:[] ];
            ];
          joint [ leaf ~view:"V2" ~params:[]; leaf ~view:"V3" ~params:[] ];
        ])
  in
  check "cite(Calcitonin) = (CV1(11)·CV3+CV1(12)·CV3)+R(CV2·CV3)"
    "true"
    (string_of_bool (C.Cite_expr.equal expected_expr calcitonin.expr));
  let engine = C.Engine.create db Dc_gtopdb.Paper_views.all in
  let result_min = C.Engine.cite engine Dc_gtopdb.Paper_views.query_q in
  check "+R=min-size selects the V2 rewriting" "V2+V3"
    (String.concat "+"
       (Cq.Query.predicates (List.hd result_min.selected)));
  check "final citation = CV2·CV3 (2 concrete citations)" "2"
    (string_of_int (C.Citation.Set.size result_min.result_citations));
  Printf.printf "\nformal citation of (Calcitonin): %s\n"
    (C.Cite_expr.to_string calcitonin.expr)

(* ------------------------------------------------------------------ *)
(* E2: rewriting enumeration strategies vs number of views.            *)

let e2 () =
  hr "E2  Rewriting search space: naive vs bucket vs MiniCon";
  Printf.printf
    "query: Q(FName,PName) :- Family ⋈ Committee ⋈ FamilyIntro;\n\
     synthetic view mix (plain / parameterized / join / non-exposing)\n\n";
  header [ 7; 9; 12; 12; 8; 10 ]
    [ "views"; "strategy"; "candidates"; "verified"; "kept"; "time ms" ];
  let query =
    Cq.Parser.parse_query_exn
      "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName), \
       FamilyIntro(FID,Text)"
  in
  List.iter
    (fun nviews ->
      let views =
        Rw.View.Set.of_list
          (List.map C.Citation_view.view
             (Dc_gtopdb.Views_catalog.synthetic ~count:nviews
             @ [ Dc_gtopdb.Views_catalog.v_committee ]))
      in
      List.iter
        (fun (name, strategy, cap) ->
          let { Rw.Rewrite.queries = rs; stats }, t =
            timed (fun () ->
                Rw.Rewrite.search ~strategy ~max_candidates:cap views query)
          in
          ignore rs;
          row [ 7; 9; 12; 12; 8; 10 ]
            [
              string_of_int nviews;
              name;
              string_of_int stats.candidates
              ^ (if stats.truncated then "+" else "");
              string_of_int stats.verified;
              string_of_int stats.kept;
              ms t;
            ])
        [
          ("naive", Rw.Rewrite.Naive, 20_000);
          ("bucket", Rw.Rewrite.Bucket, 20_000);
          ("minicon", Rw.Rewrite.Minicon, 20_000);
        ])
    [ 2; 4; 8; 16; 32 ];
  Printf.printf "('+' marks truncation at the candidate budget)\n";
  (* The hidden-join query: the views that matter hide the join
     variable, so the bucket algorithm is incomplete (finds nothing),
     the naive product wastes its whole budget on unverifiable
     candidates, and MiniCon's coverage closure finds the rewritings. *)
  subhr "hidden-join query: Q(FName,PName) :- Family ⋈ Committee";
  header [ 7; 9; 12; 12; 8; 10 ]
    [ "views"; "strategy"; "candidates"; "verified"; "kept"; "time ms" ];
  let query2 =
    Cq.Parser.parse_query_exn
      "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)"
  in
  List.iter
    (fun nviews ->
      let views =
        Rw.View.Set.of_list
          (List.map C.Citation_view.view
             (Dc_gtopdb.Views_catalog.synthetic ~count:nviews))
      in
      List.iter
        (fun (name, strategy) ->
          let { Rw.Rewrite.queries = _; stats }, t =
            timed (fun () ->
                Rw.Rewrite.search ~strategy ~max_candidates:20_000 views
                  query2)
          in
          row [ 7; 9; 12; 12; 8; 10 ]
            [
              string_of_int nviews;
              name;
              string_of_int stats.candidates
              ^ (if stats.truncated then "+" else "");
              string_of_int stats.verified;
              string_of_int stats.kept;
              ms t;
            ])
        [
          ("naive", Rw.Rewrite.Naive);
          ("bucket", Rw.Rewrite.Bucket);
          ("minicon", Rw.Rewrite.Minicon);
        ])
    [ 6; 12; 24; 48 ]

(* ------------------------------------------------------------------ *)
(* E3: citation computation time vs database size.                     *)

let e3 () =
  hr "E3  Citation computation vs database size";
  Printf.printf "query Q over the paper views; +R = min estimated size\n\n";
  header [ 10; 10; 12; 12; 14 ]
    [ "families"; "tuples"; "cite ms"; "answers"; "expr leaves" ];
  List.iter
    (fun n ->
      let db = G.generate ~seed:1 ~config:(families n) () in
      let engine = C.Engine.create db Dc_gtopdb.Paper_views.all in
      let result, t =
        timed (fun () -> C.Engine.cite engine Dc_gtopdb.Paper_views.query_q)
      in
      let leaves =
        List.fold_left
          (fun acc (tc : C.Engine.tuple_citation) ->
            acc + C.Cite_expr.size tc.expr)
          0 result.tuples
      in
      row [ 10; 10; 12; 12; 14 ]
        [
          string_of_int n;
          string_of_int (R.Database.total_tuples db);
          ms t;
          string_of_int (List.length result.tuples);
          string_of_int leaves;
        ])
    [ 100; 300; 1000; 3000; 10000 ]

(* ------------------------------------------------------------------ *)
(* E4: citation size — parameterized vs unparameterized rewriting.     *)

let e4 () =
  hr "E4  Citation size: Q1 (parameterized V1) vs Q2 (V2) — paper's size argument";
  let views =
    Rw.View.Set.of_list (List.map C.Citation_view.view Dc_gtopdb.Paper_views.all)
  in
  let q1 =
    Cq.Parser.parse_query_exn "Q1(FName) :- V1(FID,FName,Desc), V3(FID,Text)"
  in
  let q2 =
    Cq.Parser.parse_query_exn "Q2(FName) :- V2(FID,FName,Desc), V3(FID,Text)"
  in
  header [ 10; 14; 14; 14; 10 ]
    [ "families"; "size(Q1) est"; "size(Q1) exact"; "size(Q2) est"; "+R picks" ];
  List.iter
    (fun n ->
      let db = G.generate ~seed:2 ~config:(families n) () in
      let e1 = Rw.Cost.citation_size db views q1 in
      let e1x = Rw.Cost.citation_size ~exact:true db views q1 in
      let e2 = Rw.Cost.citation_size db views q2 in
      let chosen =
        match Rw.Cost.choose_min_size db views [ q1; q2 ] with
        | Some r -> Cq.Query.name r
        | None -> "-"
      in
      row [ 10; 14; 14; 14; 10 ]
        [
          string_of_int n;
          string_of_int e1;
          string_of_int e1x;
          string_of_int e2;
          chosen;
        ])
    [ 10; 100; 1000; 10000 ];
  Printf.printf
    "(expected: size(Q1) grows ∝ |Family|, size(Q2) constant, +R picks Q2)\n"

(* ------------------------------------------------------------------ *)
(* E5: policy ablation.                                                *)

let e5 () =
  hr "E5  Policy ablation (db = 1000 families)";
  let db = G.generate ~seed:3 ~config:(families 1000) () in
  let policies =
    [
      ("union/min-size", C.Policy.default, `Min_estimated_size);
      ("union/min-exact", C.Policy.default, `Min_exact_size);
      ("union/keep-all", C.Policy.make ~alt_r:C.Policy.Keep_all (), `All);
      ("union/first", C.Policy.make ~alt_r:C.Policy.First (), `All);
      ( "join/min-size",
        C.Policy.make ~joint:C.Policy.Join ~alt_r:C.Policy.Min_size (),
        `Min_estimated_size );
      ( "join/first",
        C.Policy.make ~joint:C.Policy.Join ~alt_r:C.Policy.First (),
        `All );
    ]
  in
  header [ 20; 12; 16; 12 ]
    [ "policy"; "cite ms"; "result citations"; "evaluated" ];
  List.iter
    (fun (name, policy, selection) ->
      let engine = C.Engine.create ~policy ~selection db Dc_gtopdb.Paper_views.all in
      let result, t =
        timed (fun () -> C.Engine.cite engine Dc_gtopdb.Paper_views.query_q)
      in
      row [ 20; 12; 16; 12 ]
        [
          name;
          ms t;
          string_of_int (C.Citation.Set.size result.result_citations);
          string_of_int (List.length result.selected);
        ])
    policies;
  (* Agg = Join multiplies citation sets across result tuples, so it is
     only usable on small answers; shown here on the paper's instance. *)
  subhr "Agg = Join on the paper's 4-family instance";
  let small = Dc_gtopdb.Paper_views.example_database () in
  let policy =
    C.Policy.make ~joint:C.Policy.Join ~agg:C.Policy.Join
      ~alt_r:C.Policy.Min_size ()
  in
  let engine = C.Engine.create ~policy small Dc_gtopdb.Paper_views.all in
  let result, t =
    timed (fun () -> C.Engine.cite engine Dc_gtopdb.Paper_views.query_q)
  in
  row [ 20; 12; 16; 12 ]
    [
      "join·agg/min-size";
      ms t;
      string_of_int (C.Citation.Set.size result.result_citations);
      string_of_int (List.length result.selected);
    ]

(* ------------------------------------------------------------------ *)
(* E6: incremental maintenance vs recompute.                           *)

let e6 () =
  hr "E6  Citation evolution: incremental vs recompute (db = 5000 families)";
  let db = G.generate ~seed:4 ~config:(families 5000) () in
  let make db =
    C.Engine.create ~selection:`All
      ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
      db Dc_gtopdb.Paper_views.all
  in
  let engine = make db in
  let reg0 = C.Incremental.register engine Dc_gtopdb.Paper_views.query_q in
  header [ 8; 16; 16; 12; 10 ]
    [ "batch"; "incremental ms"; "recompute ms"; "affected"; "speedup" ];
  List.iter
    (fun batch ->
      let delta =
        List.fold_left
          (fun d i ->
            let fid = 900000 + i in
            let d =
              R.Delta.insert d "Family"
                (R.Tuple.make
                   [
                     R.Value.Int fid;
                     R.Value.Str (Printf.sprintf "NewFam%d" i);
                     R.Value.Str "nf";
                   ])
            in
            R.Delta.insert d "FamilyIntro"
              (R.Tuple.make [ R.Value.Int fid; R.Value.Str "intro" ]))
          R.Delta.empty
          (List.init batch Fun.id)
      in
      let reg', t_inc = timed ~runs:1 (fun () -> C.Incremental.apply_delta reg0 delta) in
      let new_db = R.Delta.apply db delta in
      let _, t_full =
        timed ~runs:1 (fun () ->
            let e = C.Engine.refresh engine new_db in
            C.Engine.cite e Dc_gtopdb.Paper_views.query_q)
      in
      (* correctness gate: the maintained registration must answer and
         cite exactly as a fresh engine over the new database *)
      let fresh = C.Engine.cite (make new_db) Dc_gtopdb.Paper_views.query_q in
      let same_tuple (a : C.Engine.tuple_citation) (b : C.Engine.tuple_citation) =
        R.Tuple.equal a.tuple b.tuple
        && C.Cite_expr.compare a.expr b.expr = 0
        && List.equal C.Citation.equal a.citations b.citations
      in
      if
        not
          (List.equal same_tuple (C.Incremental.tuples reg') fresh.tuples
          && List.equal C.Citation.equal
               (C.Incremental.result_citations reg')
               fresh.result_citations)
      then
        failwith
          (Printf.sprintf
             "E6: batch %d: the maintained registration differs from a \
              fresh cite"
             batch);
      row [ 8; 16; 16; 12; 10 ]
        [
          string_of_int batch;
          ms t_inc;
          ms t_full;
          string_of_int (C.Incremental.affected_last reg');
          Printf.sprintf "%.1fx" (t_full /. max 0.001 t_inc);
        ])
    [ 1; 10; 100 ]

(* ------------------------------------------------------------------ *)
(* E7: semiring overhead for annotated evaluation.                     *)

let e7 () =
  hr "E7  Annotated evaluation across semirings (db = 2000 families)";
  let db = G.generate ~seed:5 ~config:(families 2000) () in
  let q = Dc_gtopdb.Paper_views.query_q in
  let module S = Dc_provenance.Semiring in
  let module A = Dc_provenance.Annotated in
  let plain, t_plain = timed (fun () -> Cq.Eval.run db q) in
  header [ 14; 12; 10 ] [ "semiring"; "eval ms"; "overhead" ];
  row [ 14; 12; 10 ] [ "none (plain)"; ms t_plain; "1.0x" ];
  ignore plain;
  let bench_one name f =
    let _, t = timed f in
    row [ 14; 12; 10 ]
      [ name; ms t; Printf.sprintf "%.1fx" (t /. max 0.001 t_plain) ]
  in
  let module MB = A.Make (S.Boolean) in
  let tb = MB.of_database (fun _ _ -> true) db in
  bench_one "boolean" (fun () -> MB.eval tb q);
  let module MC = A.Make (S.Counting) in
  let tc = MC.of_database (fun _ _ -> 1) db in
  bench_one "counting" (fun () -> MC.eval tc q);
  let module MT = A.Make (S.Tropical) in
  let tt = MT.of_database (fun _ _ -> Some 1) db in
  bench_one "tropical" (fun () -> MT.eval tt q);
  let module ML = A.Make (S.Lineage) in
  let tl =
    ML.of_database
      (fun rel tp -> Some (S.String_set.singleton (A.tuple_id rel tp)))
      db
  in
  bench_one "lineage" (fun () -> ML.eval tl q);
  let module MW = A.Make (S.Why) in
  let tw =
    MW.of_database
      (fun rel tp -> S.Witness_sets.of_list [ [ A.tuple_id rel tp ] ])
      db
  in
  bench_one "why" (fun () -> MW.eval tw q);
  let tp = A.Poly.of_database db in
  bench_one "poly N[X]" (fun () -> A.Poly.eval tp q)

(* ------------------------------------------------------------------ *)
(* E8: fixity — version store overhead and resolution.                 *)

let e8 () =
  hr "E8  Fixity: versioned store and citation resolution";
  let db = G.generate ~seed:6 ~config:(families 1000) () in
  let store = ref (R.Version_store.create db) in
  let views = Dc_gtopdb.Paper_views.all in
  let cited =
    C.Fixity.cite ~store:!store ~views Dc_gtopdb.Paper_views.query_q
  in
  (* 100 single-tuple commits *)
  let _, t_commits =
    timed ~runs:1 (fun () ->
        for i = 0 to 99 do
          let fid = 800000 + i in
          let d =
            R.Delta.insert R.Delta.empty "Family"
              (R.Tuple.make
                 [ R.Value.Int fid; R.Value.Str "VFam"; R.Value.Str "v" ])
          in
          let s, _ = R.Version_store.commit_delta !store d in
          store := s
        done)
  in
  let _, t_checkout_old =
    timed (fun () -> R.Version_store.checkout_exn !store 0)
  in
  let _, t_checkout_head =
    timed (fun () -> R.Version_store.head_db !store)
  in
  let resolved, t_resolve =
    timed ~runs:1 (fun () -> C.Fixity.resolve ~store:!store ~views cited)
  in
  let ok = match resolved with Ok ts -> List.length ts | Error _ -> -1 in
  let verified, t_verify =
    timed ~runs:1 (fun () -> C.Fixity.verify ~store:!store ~views cited)
  in
  header [ 36; 14 ] [ "operation"; "time ms" ];
  row [ 36; 14 ] [ "100 single-tuple commits"; ms t_commits ];
  row [ 36; 14 ] [ "checkout version 0"; ms t_checkout_old ];
  row [ 36; 14 ] [ "checkout head"; ms t_checkout_head ];
  row [ 36; 14 ] [ "resolve citation @v0"; ms t_resolve ];
  row [ 36; 14 ] [ "verify citation"; ms t_verify ];
  Printf.printf "\nresolved tuples: %d; fixity verified: %b\n" ok verified

(* ------------------------------------------------------------------ *)
(* E9: view coverage of a random workload.                             *)

let e9 () =
  hr "E9  Coverage of a 100-query workload vs view-set size";
  let db = G.generate ~seed:7 ~config:(families 200) () in
  let workload = Dc_gtopdb.Workload.generate ~seed:7 ~count:100 in
  header [ 8; 10; 11; 12; 12 ]
    [ "views"; "covered"; "ambiguous"; "analyze ms"; "greedy kept" ];
  List.iter
    (fun n ->
      let cviews = Dc_gtopdb.Views_catalog.take n in
      let vset =
        C.Citation_view.Set.view_set (C.Citation_view.Set.of_list cviews)
      in
      let report, t =
        timed ~runs:1 (fun () -> C.Coverage.analyze ~db vset workload)
      in
      let greedy = C.Coverage.greedy_minimal_views vset workload in
      row [ 8; 10; 11; 12; 12 ]
        [
          string_of_int n;
          pct (C.Coverage.coverage_ratio report);
          string_of_int report.ambiguous;
          ms t;
          string_of_int (List.length greedy);
        ])
    [ 1; 2; 3; 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* E10: RDF class-conditional citation vs ontology depth.              *)

let e10 () =
  hr "E10  RDF: class reasoning cost vs ontology depth (5000 triples)";
  let module O = Dc_rdf.Ontology in
  let module Tp = Dc_rdf.Triple in
  let module Gr = Dc_rdf.Graph in
  header [ 8; 14; 12; 14 ]
    [ "depth"; "inference ms"; "encode ms"; "cite ms" ];
  List.iter
    (fun depth ->
      (* a chain ontology C0 <: C1 <: ... <: Cdepth, resources typed at
         the leaves *)
      let ontology =
        List.fold_left
          (fun o i ->
            O.add_subclass o
              ~sub:(Printf.sprintf "C%d" i)
              ~super:(Printf.sprintf "C%d" (i + 1)))
          O.empty
          (List.init depth Fun.id)
      in
      let n_resources = 500 in
      let graph =
        Gr.of_list
          (List.concat_map
             (fun i ->
               let subj = Printf.sprintf "res%d" i in
               [
                 Tp.make subj Tp.rdf_type (Tp.iri "C0");
                 Tp.make subj "label" (Tp.lit_str (Printf.sprintf "resource %d" i));
                 Tp.make subj "madeBy" (Tp.iri (Printf.sprintf "lab%d" (i mod 7)));
               ]
               @ List.init 7 (fun j ->
                     Tp.make subj
                       (Printf.sprintf "p%d" j)
                       (Tp.lit_int ((i * 7) + j))))
             (List.init n_resources Fun.id))
      in
      let _, t_inf = timed ~runs:1 (fun () -> O.infer_types ontology graph) in
      let db, t_enc =
        timed ~runs:1 (fun () -> Dc_rdf.Class_view.encode ontology graph)
      in
      ignore db;
      let views =
        [
          Dc_rdf.Class_view.class_citation_view
            ~cls:(Printf.sprintf "C%d" depth)
            ~blurb:"registry";
        ]
      in
      let _, t_cite =
        timed ~runs:1 (fun () ->
            Dc_rdf.Class_view.cite_resource ontology graph ~views
              ~subject:"res7")
      in
      row [ 8; 14; 12; 14 ]
        [ string_of_int depth; ms t_inf; ms t_enc; ms t_cite ])
    [ 1; 4; 16; 64 ]

let all () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ()

(* ------------------------------------------------------------------ *)
(* E11: rewriting under key dependencies (chase-based verification).   *)

let e11 () =
  hr "E11  Rewriting under dependencies: key-joined projections";
  Printf.printf
    "views: k pairs of projections VName_i(FID,FName), VDesc_i(FID,Desc);\n\
     query: Q(FID,FName,Desc) :- Family(FID,FName,Desc);\n\
     a rewriting exists only modulo the key FID -> FName,Desc\n\n";
  let deps =
    Cq.Dependency.functional_dependency ~rel:"Family" ~arity:3
      ~determinant:[ 0 ] ~dependent:[ 1; 2 ]
  in
  let query =
    Cq.Parser.parse_query_exn "Q(FID,FName,Desc) :- Family(FID,FName,Desc)"
  in
  header [ 8; 12; 12; 14; 12; 12 ]
    [ "pairs"; "no-deps kept"; "deps kept"; "candidates"; "no-deps ms"; "deps ms" ];
  List.iter
    (fun k ->
      let views =
        Rw.View.Set.of_list
          (List.concat_map
             (fun i ->
               [
                 Rw.View.of_query
                   (Cq.Parser.parse_query_exn
                      (Printf.sprintf
                         "VName%d(FID,FName) :- Family(FID,FName,Desc)" i));
                 Rw.View.of_query
                   (Cq.Parser.parse_query_exn
                      (Printf.sprintf
                         "VDesc%d(FID,Desc) :- Family(FID,FName,Desc)" i));
               ])
             (List.init k Fun.id))
      in
      let plain, t_plain =
        timed (fun () -> (Rw.Rewrite.search views query).Rw.Rewrite.queries)
      in
      let (under, stats), t_deps =
        timed (fun () -> Rw.Rewrite.rewritings_under_deps ~deps views query)
      in
      row [ 8; 12; 12; 14; 12; 12 ]
        [
          string_of_int k;
          string_of_int (List.length plain);
          string_of_int (List.length under);
          string_of_int stats.candidates;
          ms t_plain;
          ms t_deps;
        ])
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E12: the rewriting-plan cache — repeated citations of containment-  *)
(* equivalent queries reuse the cached plan instead of re-enumerating. *)

let e12 () =
  hr "E12  Rewriting-plan cache: repeated citations, cold vs warm engine";
  Printf.printf
    "query Q over the paper views, alpha-renamed each round;\n\
     cold = fresh engine per citation, warm = one engine (plan cache)\n\n";
  let db = G.generate ~seed:4 ~config:(families 1000) () in
  let variants =
    List.map Cq.Parser.parse_query_exn
      [
        "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
        "Q(N) :- Family(I,N,D), FamilyIntro(I,T)";
        "Q(A) :- Family(B,A,C), FamilyIntro(B,E)";
        "Q(X2) :- Family(X1,X2,X3), FamilyIntro(X1,X4)";
      ]
  in
  let queries rounds =
    List.concat (List.init rounds (fun _ -> variants))
  in
  header [ 8; 12; 12; 10; 12; 12 ]
    [ "cites"; "cold ms"; "warm ms"; "speedup"; "plan hits"; "plan miss" ]
  ;
  let rows =
    List.map
      (fun rounds ->
        let qs = queries rounds in
        let n = List.length qs in
        let _, cold =
          timed ~runs:1 (fun () ->
              List.iter
                (fun q ->
                  let engine = C.Engine.create db Dc_gtopdb.Paper_views.all in
                  ignore (C.Engine.cite engine q))
                qs)
        in
        let engine = C.Engine.create db Dc_gtopdb.Paper_views.all in
        let m = C.Engine.metrics engine in
        let _, warm =
          timed ~runs:1 (fun () ->
              List.iter (fun q -> ignore (C.Engine.cite engine q)) qs)
        in
        let hits = C.Metrics.count m C.Metrics.Key.plan_cache_hits in
        let misses = C.Metrics.count m C.Metrics.Key.plan_cache_misses in
        row [ 8; 12; 12; 10; 12; 12 ]
          [
            string_of_int n;
            ms cold;
            ms warm;
            Printf.sprintf "%.1fx" (cold /. Float.max warm 0.01);
            string_of_int hits;
            string_of_int misses;
          ];
        (n, cold, warm, hits, misses))
      [ 2; 8; 32 ]
  in
  (* One shape, many keys: a landing page cites one query with a
     different family each time, at the head or at successive versions.
     cold = fresh engine per cite (a cold plan cache, as a per-version
     engine had before plans were shared across versions); warm = one
     engine, or each version's engine of one versioned engine (the
     cite without its fixity stamp). *)
  Printf.printf
    "\none shape, many keys: Q(FName,Text) :- Family(k,FName,Desc), \
     FamilyIntro(k,Text)\n\n";
  let landing k =
    Cq.Query.make_exn ~name:"Q"
      ~head:[ Cq.Term.var "FName"; Cq.Term.var "Text" ]
      ~body:
        [
          Cq.Atom.make "Family"
            [ Cq.Term.const k; Cq.Term.var "FName"; Cq.Term.var "Desc" ];
          Cq.Atom.make "FamilyIntro" [ Cq.Term.const k; Cq.Term.var "Text" ];
        ]
      ()
  in
  let n_keys = 200 and n_versions = 50 in
  let keys =
    List.filteri
      (fun i _ -> i < n_keys)
      (List.map
         (fun t -> R.Tuple.get t 0)
         (R.Relation.tuples (R.Database.relation_exn db "Family")))
  in
  let views = Dc_gtopdb.Paper_views.all in
  let cold_cites cites =
    snd
      (timed ~runs:1 (fun () ->
           List.iter
             (fun (db, k) ->
               ignore (C.Engine.cite (C.Engine.create db views) (landing k)))
             cites))
  in
  let landing_row =
    let cold = cold_cites (List.map (fun k -> (db, k)) keys) in
    let engine = C.Engine.create db views in
    let m = C.Engine.metrics engine in
    let _, warm =
      timed ~runs:1 (fun () ->
          List.iter (fun k -> ignore (C.Engine.cite engine (landing k))) keys)
    in
    ( "landing keys",
      List.length keys,
      cold,
      warm,
      C.Metrics.count m C.Metrics.Key.plan_cache_hits,
      C.Metrics.count m C.Metrics.Key.plan_cache_misses )
  in
  let versions_row =
    let ve = C.Versioned_engine.create db views in
    let added =
      List.init n_versions (fun i ->
          let k = R.Value.Int (1_000_000 + i) in
          let v =
            Result.get_ok
              (C.Versioned_engine.commit_delta ve
                 (R.Delta.insert
                    (R.Delta.insert R.Delta.empty "Family"
                       (R.Tuple.make
                          [ k; R.Value.Str "Added"; R.Value.Str "D" ]))
                    "FamilyIntro"
                    (R.Tuple.make [ k; R.Value.Str "Added intro" ])))
          in
          (v, k))
    in
    let store = C.Versioned_engine.store ve in
    let cold =
      cold_cites
        (List.map
           (fun (v, k) -> (R.Version_store.checkout_exn store v, k))
           added)
    in
    let m = C.Versioned_engine.metrics ve in
    let count k = C.Metrics.count m k in
    let hits0 = count C.Metrics.Key.plan_cache_hits
    and misses0 = count C.Metrics.Key.plan_cache_misses in
    let _, warm =
      timed ~runs:1 (fun () ->
          List.iter
            (fun (v, k) ->
              let e = Result.get_ok (C.Versioned_engine.engine_at ve v) in
              ignore (C.Engine.cite e (landing k)))
            added)
    in
    ( "successive versions",
      n_versions,
      cold,
      warm,
      count C.Metrics.Key.plan_cache_hits - hits0,
      count C.Metrics.Key.plan_cache_misses - misses0 )
  in
  let shape_rows = [ landing_row; versions_row ] in
  header [ 20; 8; 12; 12; 10; 12; 12 ]
    [
      "row"; "cites"; "cold ms"; "warm ms"; "speedup"; "plan hits"; "plan miss";
    ];
  List.iter
    (fun (name, n, cold, warm, hits, misses) ->
      row [ 20; 8; 12; 12; 10; 12; 12 ]
        [
          name;
          string_of_int n;
          ms cold;
          ms warm;
          Printf.sprintf "%.1fx" (cold /. Float.max warm 0.01);
          string_of_int hits;
          string_of_int misses;
        ])
    shape_rows;
  write_bench_json ~experiment:"E12"
    [
      ("params", json_obj [ ("families", "1000"); ("variants", "4") ]);
      ( "shapes",
        json_list
          (List.map
             (fun (name, n, cold, warm, hits, misses) ->
               json_obj
                 [
                   ("row", json_str name);
                   ("shapes", "1");
                   ("cites", string_of_int n);
                   ("cold_ms", json_ms cold);
                   ("warm_ms", json_ms warm);
                   ("plan_hits", string_of_int hits);
                   ("plan_misses", string_of_int misses);
                 ])
             shape_rows) );
      ( "rows",
        json_list
          (List.map
             (fun (n, cold, warm, hits, misses) ->
               json_obj
                 [
                   ("cites", string_of_int n);
                   ("cold_ms", json_ms cold);
                   ("warm_ms", json_ms warm);
                   ("plan_hits", string_of_int hits);
                   ("plan_misses", string_of_int misses);
                 ])
             rows) );
    ];
  Printf.printf
    "(expected: warm << cold — only the first citation of a shape pays\n\
     rewriting enumeration; hits = cites - 1 per warm engine or row)\n"

(* ------------------------------------------------------------------ *)
(* E14: multicore scaling — batch citations on one engine from many   *)
(* domains, at 1/2/4/8 domains.                                       *)

let e14 () =
  hr "E14  Multicore scaling: batch citations";
  let cores = Dc_server.Worker_pool.available_cores () in
  let domain_counts = [ 1; 2; 4; 8 ] in
  Printf.printf
    "host reports %d usable core(s) — requested domain counts are clamped\n\
     to that (the \"eff\" column is what actually ran);\n\
     batch: 48 workload queries over a 400-family GtoPdb database,\n\
     one cold engine per row, one chunk per domain (this one and the\n\
     workers of the server's pool)\n\n"
    cores;
  if cores < 2 then
    Printf.printf
      "WARNING: single-core host — every row degrades to sequential\n\
      \         execution, so this run only validates the degrade path\n\
      \         (speedup ~1.0x); scaling needs a multi-core box.\n\n";
  let db = G.generate ~seed:6 ~config:(families 400) () in
  let queries = Dc_gtopdb.Workload.generate ~seed:7 ~count:48 in
  let n_queries = List.length queries in
  let batch d =
    let module W = Dc_server.Worker_pool in
    (* the server's clamp, and its domain-backed pool less one worker:
       this domain cites the first chunk itself instead of waiting idle
       (a domain blocked on the latch still joins every minor-GC
       barrier; with [eff] workers and this domain waiting, 2 domains
       on a 2-vCPU host took ~22 ms against ~12 ms) *)
    let eff = W.effective ~requested:d in
    let pool =
      W.create ~domains:(eff > 1) ~workers:(max 1 (eff - 1))
        ~queue_capacity:eff ()
    in
    Fun.protect ~finally:(fun () -> W.shutdown pool) @@ fun () ->
    (* a fresh engine per row: every domain starts with cold caches, so
       rows differ only in the domain count; a fresh engine also means a
       fresh metrics registry, so lock-wait counts below belong to this
       row alone *)
    let engine = C.Engine.create db Dc_gtopdb.Paper_views.all in
    let m = C.Engine.metrics engine in
    let chunks = Array.of_list (chunk ~chunks:eff queries) in
    let cite qs =
      try Ok (List.map (C.Engine.cite engine) qs) with ex -> Error ex
    in
    (* one job per chunk but the first, which runs here; then wait on a
       latch for the jobs.  A job that raises hands its exception to
       this domain. *)
    let run () =
      let results = Array.make (Array.length chunks) (Ok []) in
      let pending = ref (Array.length chunks - 1) in
      let mu = Mutex.create () and all_done = Condition.create () in
      for i = 1 to Array.length chunks - 1 do
        let job () =
          let r = cite chunks.(i) in
          Mutex.lock mu;
          results.(i) <- r;
          decr pending;
          if !pending = 0 then Condition.signal all_done;
          Mutex.unlock mu
        in
        match W.submit pool job with
        | W.Accepted -> ()
        | W.Overloaded | W.Shutting_down -> failwith "E14: pool refused a chunk"
      done;
      results.(0) <- cite chunks.(0);
      Mutex.lock mu;
      while !pending > 0 do
        Condition.wait all_done mu
      done;
      Mutex.unlock mu;
      Array.to_list results
      |> List.concat_map (function Ok rs -> rs | Error ex -> raise ex)
    in
    (* median of 3: the batch is fast enough that a single run's
       scheduler noise can swamp a honest ~1.0x degrade ratio *)
    let results, t = timed ~runs:3 run in
    let chunk_size = (n_queries + eff - 1) / eff in
    ( List.length results,
      t,
      eff,
      chunk_size,
      C.Metrics.count m C.Metrics.Key.engine_lock_waits,
      C.Metrics.per_sink m C.Metrics.Key.engine_lock_waits,
      C.Metrics.sink_count m )
  in
  (* one discarded warm-up batch so the d=1 baseline row does not also
     pay first-touch costs (heap growth, page faults) *)
  ignore (batch 1);
  let widths = [ 8; 5; 7; 10; 10; 10; 10 ] in
  header widths
    [ "domains"; "eff"; "chunk"; "batch ms"; "speedup"; "lockwait"; "cited" ];
  let base = ref None in
  let rows =
    List.map
      (fun d ->
        let cited, t_batch, eff, chunk_size, lock_waits, per_dom, sinks =
          batch d
        in
        if !base = None then base := Some t_batch;
        let speedup = Option.get !base /. Float.max t_batch 0.001 in
        row widths
          [
            string_of_int d;
            string_of_int eff;
            string_of_int chunk_size;
            ms t_batch;
            Printf.sprintf "%.2fx" speedup;
            string_of_int lock_waits;
            string_of_int cited;
          ];
        (d, t_batch, speedup, eff, chunk_size, lock_waits, per_dom, sinks))
      domain_counts
  in
  write_bench_json ~experiment:"E14"
    [
      ("parallel_hardware", string_of_bool (cores >= 2));
      ("params", json_obj [ ("families", "400"); ("batch_queries", "48") ]);
      ( "batch",
        json_list
          (List.map
             (fun (d, t, speedup, eff, chunk_size, lock_waits, per_dom, sinks) ->
               json_obj
                 [
                   ("domains", string_of_int d);
                   ("effective_domains", string_of_int eff);
                   ("chunk_size", string_of_int chunk_size);
                   ("ms", json_ms t);
                   ("speedup", json_ms speedup);
                   ("engine_lock_waits", string_of_int lock_waits);
                   ( "lock_waits_per_domain",
                     json_list (List.map string_of_int per_dom) );
                   ("metric_sinks", string_of_int sinks);
                 ])
             rows) );
    ];
  Printf.printf
    "(expected on an N-core host: batch speedup approaching min(N, domains)x\n\
     — >= 2x at 4 domains — because each domain keeps its own caches of the\n\
     engine; engine_lock_waits stays 0, as no two domains share a lock.\n\
     Requested widths beyond the core count are clamped, so a 1-core host\n\
     runs every row sequentially and speedup sits at ~1.0x instead of the\n\
     cross-domain GC-barrier slowdown the unclamped engine used to show —\n\
     read cores/effective_domains in BENCH_E14.json next to the ratios.\n\
     Outputs are byte-identical across domain counts at every width; the\n\
     parallel test suite asserts that.)\n"

(* ------------------------------------------------------------------ *)
(* E15: versioned citations — commit a delta, then re-cite at the new *)
(* head through the maintained registration vs a full engine rebuild, *)
(* and cite the pre-delta version as-of (cold checkout vs cached).    *)

let e15 () =
  hr "E15  Versioned citations: cite-as-of and re-cite after deltas";
  Printf.printf
    "300-family GtoPdb database as version 0; each row commits a delta of\n\
     N fresh families and re-cites Q at the new head via the maintained\n\
     registration (incr) and via a full engine rebuild over the head\n\
     database (full); v0 cold first re-cites version 0 after its engine\n\
     was evicted (checkout + materialization), v0 warm hits the cached\n\
     engine; verify checks the v0 fixity digest\n\n";
  let views = Dc_gtopdb.Paper_views.all in
  let db = G.generate ~seed:6 ~config:(families 300) () in
  let q =
    Cq.Parser.parse_query_exn
      "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)"
  in
  let q2 =
    Cq.Parser.parse_query_exn "Q(FID,FName,Desc) :- Family(FID,FName,Desc)"
  in
  let delta ~start n =
    List.fold_left
      (fun d i ->
        let fid = R.Value.Int (1_000_000 + start + i) in
        let name = R.Value.Str (Printf.sprintf "NewFam%d" (start + i)) in
        let d =
          R.Delta.insert d "Family"
            (R.Tuple.make [ fid; name; R.Value.Str "bench" ])
        in
        R.Delta.insert d "FamilyIntro"
          (R.Tuple.make [ fid; R.Value.Str "intro" ]))
      R.Delta.empty
      (List.init n (fun i -> i))
  in
  let ok = function Ok v -> v | Error e -> failwith ("E15: " ^ e) in
  let widths = [ 8; 11; 10; 10; 12; 12; 11 ] in
  header widths
    [
      "delta"; "commit ms"; "incr ms"; "full ms"; "v0 cold ms"; "v0 warm ms";
      "verify ms";
    ];
  let rows =
    List.map
      (fun n ->
        let ve = C.Versioned_engine.create ~capacity:2 db views in
        ignore (ok (C.Versioned_engine.cite ve q));
        ok (C.Versioned_engine.register ve q);
        let v1, commit_ms =
          time_ms (fun () ->
              ok (C.Versioned_engine.commit_delta ve (delta ~start:0 n)))
        in
        (* the once-per-version content digest is priced by the verify
           column (and the fixity_digest timer), not by the re-cite *)
        ignore (ok (C.Versioned_engine.digest_at ve v1));
        let incr, incr_ms =
          time_ms (fun () -> ok (C.Versioned_engine.cite_at ve v1 q))
        in
        if not incr.C.Versioned_engine.from_registration then
          failwith "E15: head re-cite was not served from the registration";
        let head_db =
          R.Version_store.checkout_exn (C.Versioned_engine.store ve) v1
        in
        let full, full_ms =
          time_ms (fun () ->
              C.Engine.cite (C.Engine.create head_db views) q)
        in
        if
          List.length full.C.Engine.tuples
          <> List.length incr.C.Versioned_engine.result.C.Engine.tuples
        then failwith "E15: incremental and full recompute disagree";
        (* a second commit plus engine-path citations of versions 1 and
           2 push version 0 out of the capacity-2 engine cache, so the
           next cite_at 0 pays checkout + materialization *)
        let v2 = ok (C.Versioned_engine.commit_delta ve (delta ~start:n 1)) in
        ignore (ok (C.Versioned_engine.cite_at ve v2 q2));
        ignore (ok (C.Versioned_engine.cite_at ve v1 q2));
        let cold, cold_ms =
          time_ms (fun () -> ok (C.Versioned_engine.cite_at ve 0 q))
        in
        let _, warm_ms =
          time_ms (fun () -> ok (C.Versioned_engine.cite_at ve 0 q))
        in
        let valid, verify_ms =
          time_ms (fun () ->
              ok (C.Versioned_engine.verify ve 0 cold.C.Versioned_engine.digest))
        in
        if not valid then failwith "E15: v0 digest failed verification";
        row widths
          [
            string_of_int n;
            ms commit_ms;
            ms incr_ms;
            ms full_ms;
            ms cold_ms;
            ms warm_ms;
            ms verify_ms;
          ];
        (n, commit_ms, incr_ms, full_ms, cold_ms, warm_ms, verify_ms))
      [ 1; 10; 100 ]
  in
  (* Digest cost per commit, v1 against v2, at two database sizes.  Two
     engines over the same data take the same commits: the v1 one
     renders its new head with [Fixity.digest_db]; the v2 one had its
     version-0 digest demanded (outside the timing), so each commit
     carries the changed relations' multiset hashes across the delta and
     [digest_at] folds them.  Each figure is the commit plus the digest a
     stamp of the new head needs: the commit work is the same code for
     both, except the carried tuple hashes v2 pays inside it. *)
  subhr "digest ms per commit: v1 (whole-version render) vs v2 (carried)";
  let digest_widths = [ 10; 10; 22; 22 ] in
  header digest_widths
    [ "families"; "tuples"; "v1 commit+digest ms"; "v2 commit+digest ms" ];
  let commits = 21 in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let digest_rows =
    List.map
      (fun n ->
        let db = G.generate ~seed:6 ~config:(families n) () in
        let v1_ve = C.Versioned_engine.create db [] in
        let v2_ve = C.Versioned_engine.create db [] in
        ignore (ok (C.Versioned_engine.digest_at v2_ve 0));
        let per_commit ve digest =
          median
            (List.init commits (fun i ->
                 snd
                   (time_ms (fun () ->
                        digest ve
                          (ok
                             (C.Versioned_engine.commit_delta ve
                                (delta ~start:(10_000 + i) 1)))))))
        in
        let v1 =
          per_commit v1_ve (fun ve v ->
              C.Fixity.digest_db
                (R.Version_store.checkout_exn (C.Versioned_engine.store ve) v))
        in
        let v2 =
          per_commit v2_ve (fun ve v -> ok (C.Versioned_engine.digest_at ve v))
        in
        let tuples = R.Database.total_tuples db in
        row digest_widths
          [
            string_of_int n;
            string_of_int tuples;
            Printf.sprintf "%.4f" v1;
            Printf.sprintf "%.4f" v2;
          ];
        (n, tuples, v1, v2))
      [ 300; 3000 ]
  in
  write_bench_json ~experiment:"E15"
    [
      ("params", json_obj [ ("families", "300"); ("capacity", "2") ]);
      ( "digest_per_commit",
        json_list
          (List.map
             (fun (n, tuples, v1, v2) ->
               json_obj
                 [
                   ("families", string_of_int n);
                   ("tuples", string_of_int tuples);
                   ("commits", string_of_int commits);
                   ("v1_ms", Printf.sprintf "%.4f" v1);
                   ("v2_ms", Printf.sprintf "%.4f" v2);
                 ])
             digest_rows) );
      ( "rows",
        json_list
          (List.map
             (fun (n, commit_ms, incr_ms, full_ms, cold_ms, warm_ms, verify_ms)
                ->
               json_obj
                 [
                   ("delta", string_of_int n);
                   ("commit_ms", json_ms commit_ms);
                   ("incremental_ms", json_ms incr_ms);
                   ("full_recompute_ms", json_ms full_ms);
                   ("v0_cold_ms", json_ms cold_ms);
                   ("v0_warm_ms", json_ms warm_ms);
                   ("verify_ms", json_ms verify_ms);
                 ])
             rows) );
    ];
  Printf.printf
    "(expected: incr << full at every delta size — the registration is\n\
     maintained by delta rules at commit time, so the head re-cite only\n\
     reads cached citations, while full pays view materialization plus\n\
     rewriting from scratch.  v0 cold pays engine materialization once;\n\
     v0 warm is a cache hit and stays flat as deltas accumulate.  v1's\n\
     digest per commit grows with the database; v2's stays flat, at\n\
     least 10x below v1's at 3000 families, the floor CI gates on.)\n"

(* ------------------------------------------------------------------ *)
(* E16: durability — commit latency under each WAL fsync policy,      *)
(* recovery time vs WAL length and snapshot recency, and warm cite    *)
(* throughput with the store attached (should be unchanged: the cite  *)
(* path never touches storage).                                       *)

module St = Dc_storage.Store

let e16 () =
  hr "E16  Durability: fsync cost, crash recovery, warm cites";
  Printf.printf
    "100-family GtoPdb database as version 0 in a fresh data directory per\n\
     row.  Part 1 commits single-family deltas under each fsync policy\n\
     (none = no store attached); part 2 rebuilds a Version_store from the\n\
     directory — full replays the whole WAL, fast seeds from a mid-history\n\
     snapshot; part 3 re-cites the registered query at the head with and\n\
     without the store attached\n\n";
  let views = Dc_gtopdb.Paper_views.all in
  let db = G.generate ~seed:7 ~config:(families 100) () in
  let q =
    Cq.Parser.parse_query_exn
      "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)"
  in
  let ok what = function Ok v -> v | Error e -> failwith ("E16 " ^ what ^ ": " ^ e) in
  let fresh_dir =
    let ctr = ref 0 in
    fun () ->
      incr ctr;
      let d =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "dc-e16-%d-%d" (Unix.getpid ()) !ctr)
      in
      Unix.mkdir d 0o700;
      d
  in
  let rm_rf d =
    if Sys.file_exists d then begin
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Unix.rmdir d
    end
  in
  let delta_one i =
    let fid = R.Value.Int (2_000_000 + i) in
    let d =
      R.Delta.insert R.Delta.empty "Family"
        (R.Tuple.make
           [ fid; R.Value.Str (Printf.sprintf "E16Fam%d" i); R.Value.Str "bench" ])
    in
    R.Delta.insert d "FamilyIntro" (R.Tuple.make [ fid; R.Value.Str "intro" ])
  in
  (* Part 1: commit latency vs fsync policy. *)
  subhr "commit latency vs WAL fsync policy";
  let commits = 150 in
  let policy_rows =
    List.map
      (fun (label, policy) ->
        let dir = Option.map (fun _ -> fresh_dir ()) policy in
        let ve, store =
          match (policy, dir) with
          | Some fsync, Some dir ->
              let ve, st, _ =
                ok "open"
                  (C.Versioned_engine.open_durable ~capacity:2 ~fsync ~db ~dir
                     (fun db -> C.Engine.create db views))
              in
              (ve, Some st)
          | _ -> (C.Versioned_engine.create ~capacity:2 db views, None)
        in
        let _, total_ms =
          time_ms (fun () ->
              for i = 0 to commits - 1 do
                ignore (ok "commit" (C.Versioned_engine.commit_delta ve (delta_one i)))
              done)
        in
        Option.iter St.close store;
        Option.iter rm_rf dir;
        let per_ms = total_ms /. float_of_int commits in
        let per_s = 1000. /. per_ms in
        (label, per_ms, per_s))
      [
        ("none", None);
        ("never", Some St.Never);
        ("interval", Some (St.Interval 0.05));
        ("always", Some St.Always);
      ]
  in
  let widths = [ 10; 14; 12 ] in
  header widths [ "fsync"; "commit ms"; "commits/s" ];
  List.iter
    (fun (label, per_ms, per_s) ->
      row widths [ label; Printf.sprintf "%.4f" per_ms; Printf.sprintf "%.0f" per_s ])
    policy_rows;
  (* Part 2: recovery time vs WAL length and snapshot recency.  The
     directory is built with a snapshot at the midpoint, so full replays
     all n deltas from snapshot 0 while fast replays only the n/2 after
     the latest snapshot. *)
  subhr "recovery: full (whole WAL) vs fast (latest snapshot + suffix)";
  let widths = [ 8; 10; 10; 12; 10; 10 ] in
  header widths
    [ "deltas"; "full ms"; "replayed"; "deltas/s"; "fast ms"; "replayed" ];
  let recovery_rows =
    List.map
      (fun n ->
        let dir = fresh_dir () in
        let ve, st, _ =
          ok "open"
            (C.Versioned_engine.open_durable ~capacity:2 ~fsync:St.Never ~db
               ~dir (fun db -> C.Engine.create db views))
        in
        for i = 0 to (n / 2) - 1 do
          ignore (ok "commit" (C.Versioned_engine.commit_delta ve (delta_one i)))
        done;
        ignore
          (ok "snapshot"
             (St.write_snapshot st
                ~store:(C.Versioned_engine.store ve)
                ~registrations:[]));
        for i = n / 2 to n - 1 do
          ignore (ok "commit" (C.Versioned_engine.commit_delta ve (delta_one i)))
        done;
        St.close st;
        let recover mode =
          let (st, rec_), t_ms =
            time_ms (fun () ->
                let st, r =
                  ok "recover"
                    (St.open_ ~digest:C.Fixity.digest_db ~fsync:St.Never ~mode
                       ~dir ~db ())
                in
                (st, Option.get r))
          in
          St.close st;
          if R.Version_store.head rec_.St.store <> n then
            failwith "E16: recovered head does not match committed head";
          (t_ms, rec_.St.replayed)
        in
        let full_ms, full_replayed = recover St.Full in
        let fast_ms, fast_replayed = recover St.Fast in
        rm_rf dir;
        let full_rate = float_of_int full_replayed /. (full_ms /. 1000.) in
        row widths
          [
            string_of_int n;
            ms full_ms;
            string_of_int full_replayed;
            Printf.sprintf "%.0f" full_rate;
            ms fast_ms;
            string_of_int fast_replayed;
          ];
        (n, full_ms, full_replayed, full_rate, fast_ms, fast_replayed))
      [ 500; 1500; 3000 ]
  in
  (* Part 3: warm head re-cites with and without the store attached. *)
  subhr "warm cite throughput: in-memory vs durable";
  let cites = 300 in
  let warm_ops label make =
    let ve, cleanup = make () in
    ok "register" (C.Versioned_engine.register ve q);
    ignore (ok "commit" (C.Versioned_engine.commit_delta ve (delta_one 0)));
    ignore (ok "cite" (C.Versioned_engine.cite ve q));
    let _, total_ms =
      time_ms (fun () ->
          for _ = 1 to cites do
            ignore (ok "cite" (C.Versioned_engine.cite ve q))
          done)
    in
    cleanup ();
    let ops = float_of_int cites /. (total_ms /. 1000.) in
    Printf.printf "%-10s %8.0f cites/s\n" label ops;
    (label, ops)
  in
  let _, mem_ops =
    warm_ops "in-memory" (fun () ->
        (C.Versioned_engine.create ~capacity:2 db views, fun () -> ()))
  in
  let _, dur_ops =
    warm_ops "durable" (fun () ->
        let dir = fresh_dir () in
        let ve, st, _ =
          ok "open"
            (C.Versioned_engine.open_durable ~capacity:2 ~fsync:St.Always ~db
               ~dir (fun db -> C.Engine.create db views))
        in
        ( ve,
          fun () ->
            St.close st;
            rm_rf dir ))
  in
  (* Part 4: group commit — concurrent Always appenders share fsync
     barriers, narrowing the gap to Never as concurrency grows.  Raw WAL
     appends (the engine serializes whole commits per store, so the
     coalescing lives below it); every row verifies all records recover. *)
  subhr "group commit: concurrent Always appenders share fsync barriers";
  let gc_appends = 100 in
  let gc_row (threads, label, fsync) =
    let dir = fresh_dir () in
    let path = Filename.concat dir "wal.log" in
    let w = ok "wal create" (Dc_storage.Wal.create ~path ~fsync) in
    (* the appender threads share this domain, hence the scope *)
    let m = C.Metrics.create () in
    let _, total_ms =
      C.Metrics.with_sink m @@ fun () ->
      time_ms (fun () ->
          let ts =
            List.init threads (fun k ->
                Thread.create
                  (fun () ->
                    for i = 0 to gc_appends - 1 do
                      ok "append"
                        (Dc_storage.Wal.append w
                           (Dc_storage.Wal.Register
                              (Printf.sprintf "Q%d_%d(X) :- R(X)" k i)))
                    done)
                  ())
          in
          List.iter Thread.join ts)
    in
    Dc_storage.Wal.close w;
    let scan = ok "scan" (Dc_storage.Wal.scan_file ~schemas:[] path) in
    let total = threads * gc_appends in
    if List.length scan.Dc_storage.Wal.records <> total then
      failwith "E16: group-commit appends lost";
    rm_rf dir;
    let fs = C.Metrics.count m C.Metrics.Key.wal_fsyncs in
    let per_barrier =
      if fs = 0 then float_of_int total else float_of_int total /. float_of_int fs
    in
    let per_s = float_of_int total /. (total_ms /. 1000.) in
    (threads, label, total, fs, per_barrier, per_s)
  in
  let gc_rows =
    List.map gc_row
      [
        (1, "always", St.Always);
        (4, "always", St.Always);
        (8, "always", St.Always);
        (8, "never", St.Never);
      ]
  in
  let widths = [ 9; 8; 9; 8; 14; 11 ] in
  header widths
    [ "threads"; "fsync"; "appends"; "fsyncs"; "appends/fsync"; "appends/s" ];
  List.iter
    (fun (threads, label, total, fs, per_barrier, per_s) ->
      row widths
        [
          string_of_int threads;
          label;
          string_of_int total;
          string_of_int fs;
          Printf.sprintf "%.1f" per_barrier;
          Printf.sprintf "%.0f" per_s;
        ])
    gc_rows;
  write_bench_json ~experiment:"E16"
    [
      ( "params",
        json_obj
          [
            ("families", "100");
            ("commits_per_policy", string_of_int commits);
            ("warm_cites", string_of_int cites);
          ] );
      ( "fsync",
        json_list
          (List.map
             (fun (label, per_ms, per_s) ->
               json_obj
                 [
                   ("policy", json_str label);
                   ("commit_ms", json_ms per_ms);
                   ("commits_per_s", Printf.sprintf "%.0f" per_s);
                 ])
             policy_rows) );
      ( "recovery",
        json_list
          (List.map
             (fun (n, full_ms, full_replayed, full_rate, fast_ms, fast_replayed) ->
               json_obj
                 [
                   ("deltas", string_of_int n);
                   ("full_ms", json_ms full_ms);
                   ("full_replayed", string_of_int full_replayed);
                   ("full_deltas_per_s", Printf.sprintf "%.0f" full_rate);
                   ("fast_ms", json_ms fast_ms);
                   ("fast_replayed", string_of_int fast_replayed);
                 ])
             recovery_rows) );
      ( "warm_cite",
        json_obj
          [
            ("in_memory_per_s", Printf.sprintf "%.0f" mem_ops);
            ("durable_per_s", Printf.sprintf "%.0f" dur_ops);
          ] );
      ( "group_commit",
        json_list
          (List.map
             (fun (threads, label, total, fs, per_barrier, per_s) ->
               json_obj
                 [
                   ("threads", string_of_int threads);
                   ("fsync", json_str label);
                   ("appends", string_of_int total);
                   ("fsyncs", string_of_int fs);
                   ("appends_per_fsync", Printf.sprintf "%.1f" per_barrier);
                   ("appends_per_s", Printf.sprintf "%.0f" per_s);
                 ])
             gc_rows) );
    ];
  Printf.printf
    "(expected: commit cost none ~= never < interval < always — the gap to\n\
     always is one fsync per commit, the price of losing nothing; full\n\
     recovery replays the whole WAL at >= 10k deltas/s while fast replays\n\
     only the suffix past the latest snapshot; warm cite throughput is\n\
     unchanged with the store attached because citation never touches\n\
     storage — only commits and registrations append to the WAL; group\n\
     commit raises appends/fsync well above 1 as Always appenders pile\n\
     up, closing part of the gap to never at no durability cost.)\n"

(* ------------------------------------------------------------------ *)
(* E19: compiled query plans — the slot-based join kernel vs the      *)
(* retained interpreter (Eval.Reference), plus index-build cost.      *)

let e19 () =
  hr "E19  Compiled query plans: slot kernel vs interpreter";
  Printf.printf
    "E12 workload (1000-family GtoPdb database, 4 alpha-variant queries);\n\
     interp = Eval.Reference (per-eval atom ordering, string-map bindings,\n\
     warm index cache); cold4 = first compiled pass over the 4 variants\n\
     (plan compilation + index builds included); warm = same evals through\n\
     cached plans\n\n";
  let db = G.generate ~seed:4 ~config:(families 1000) () in
  let variants =
    List.map Cq.Parser.parse_query_exn
      [
        "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
        "Q(N) :- Family(I,N,D), FamilyIntro(I,T)";
        "Q(A) :- Family(B,A,C), FamilyIntro(B,E)";
        "Q(X2) :- Family(X1,X2,X3), FamilyIntro(X1,X4)";
      ]
  in
  (* correctness gate: compiled results must be identical to the
     interpreter on the whole workload before timing means anything *)
  let same_run a b =
    List.equal
      (fun (t1, bs1) (t2, bs2) ->
        R.Tuple.equal t1 t2
        && List.equal Cq.Eval.Binding.equal
             (List.sort Cq.Eval.Binding.compare bs1)
             (List.sort Cq.Eval.Binding.compare bs2))
      a b
  in
  let gate_cache = Cq.Eval.make_cache () in
  let identical =
    List.for_all
      (fun q ->
        same_run
          (Cq.Eval.run ~cache:gate_cache db q)
          (Cq.Eval.Reference.run db q))
      variants
  in
  Printf.printf "compiled results identical to interpreter: %b\n\n" identical;
  if not identical then failwith "E19: compiled results diverge";
  let widths = [ 8; 12; 12; 12; 10; 10 ] in
  header widths
    [ "evals"; "interp ms"; "cold4 ms"; "warm ms"; "speedup"; "compiles" ];
  let rows =
    List.map
      (fun rounds ->
        let qs = List.concat (List.init rounds (fun _ -> variants)) in
        let n = List.length qs in
        let icache = Cq.Eval.make_cache () in
        (* warm the interpreter's index cache: the baseline is its
           steady state, not its index-build cost *)
        List.iter
          (fun q -> ignore (Cq.Eval.Reference.run ~cache:icache db q))
          variants;
        let _, interp =
          timed ~runs:3 (fun () ->
              List.iter
                (fun q -> ignore (Cq.Eval.Reference.run ~cache:icache db q))
                qs)
        in
        let ccache = Cq.Eval.make_cache () in
        let c0 = C.Metrics.count C.Metrics.default C.Metrics.Key.plan_compiles in
        let _, cold4 =
          timed ~runs:1 (fun () ->
              List.iter (fun q -> ignore (Cq.Eval.run ~cache:ccache db q)) variants)
        in
        let compiles =
          C.Metrics.count C.Metrics.default C.Metrics.Key.plan_compiles - c0
        in
        let _, warm =
          timed ~runs:3 (fun () ->
              List.iter (fun q -> ignore (Cq.Eval.run ~cache:ccache db q)) qs)
        in
        let speedup = interp /. Float.max warm 0.001 in
        row widths
          [
            string_of_int n;
            ms interp;
            ms cold4;
            ms warm;
            Printf.sprintf "%.1fx" speedup;
            string_of_int compiles;
          ];
        (n, interp, cold4, warm, speedup, compiles))
      [ 8; 32; 128 ]
  in
  subhr "index costs on a column prefix (the inputs of Index's ski rental)";
  let fam = R.Database.relation_exn db "Family" in
  let n = R.Relation.cardinality fam in
  (* probe in a seeded random order, as cites of random landing pages
     do: probing in key order would keep the descent's path cached *)
  let keys =
    let rng = Random.State.make [| 19 |] in
    List.map (fun t -> (Random.State.bits rng, [| t.(0) |])) (R.Relation.tuples fam)
    |> List.sort compare |> List.map snd
  in
  (* [Index.build] on a prefix builds nothing, so the build row forces
     the hash table and adds the first probe a cite would make *)
  let _, build_ms =
    timed ~runs:5 (fun () ->
        let idx = R.Index.build fam [ 0 ] in
        R.Index.build_table idx;
        ignore (R.Index.lookup_key idx (List.hd keys)))
  in
  let built = R.Index.build fam [ 0 ] in
  R.Index.build_table built;
  let rounds = 20 in
  let per_probe_ns probe =
    let _, total =
      timed ~runs:3 (fun () ->
          for _ = 1 to rounds do
            List.iter (fun k -> ignore (probe k)) keys
          done)
    in
    total *. 1e6 /. float_of_int (rounds * n)
  in
  let set_ns = per_probe_ns (R.Relation.probe_prefix fam) in
  let hash_ns = per_probe_ns (R.Index.lookup_key built) in
  let build_ns = build_ms *. 1e6 /. float_of_int n in
  let break_even = build_ns /. Float.max 1. (set_ns -. hash_ns) in
  Printf.printf
    "Family (%d tuples) on col 0: forced hash-table build + first probe \
     %.2f ms (median of 5) = %.0f ns/tuple\n\
     warm probe: set descent %.0f ns, hash table %.0f ns; renting the \
     descent breaks even after %.2f probes per tuple\n"
    n build_ms build_ns set_ns hash_ns break_even;
  write_bench_json ~experiment:"E19"
    [
      ("params", json_obj [ ("families", "1000"); ("variants", "4") ]);
      ("results_identical", string_of_bool identical);
      ( "rows",
        json_list
          (List.map
             (fun (n, interp, cold4, warm, speedup, compiles) ->
               json_obj
                 [
                   ("evals", string_of_int n);
                   ("interp_ms", json_ms interp);
                   ("cold4_ms", json_ms cold4);
                   ("warm_ms", json_ms warm);
                   ("speedup", Printf.sprintf "%.2f" speedup);
                   ("plan_compiles", string_of_int compiles);
                 ])
             rows) );
      ("index_build_first_probe_ms", json_ms build_ms);
      ("set_probe_ns", Printf.sprintf "%.0f" set_ns);
      ("hash_probe_ns", Printf.sprintf "%.0f" hash_ns);
      ("build_ns_per_tuple", Printf.sprintf "%.0f" build_ns);
      ("break_even_probes_per_tuple", Printf.sprintf "%.2f" break_even);
    ];
  Printf.printf
    "(expected: warm >= 2x interp at every width — the kernel touches no\n\
     string map and allocates no per-probe key; cold4 stays small because\n\
     compilation is one pass over the body plus index builds the\n\
     interpreter pays too)\n"

(* ------------------------------------------------------------------ *)
(* E20: recursive citation views — semi-naive vs naive fixpoint cost,
   and cite latency through a closure view (cold vs warm).             *)

let e20 () =
  hr "E20  Recursive citation views: semi-naive vs naive fixpoint";
  let edge_schema =
    R.Schema.make "E"
      [ R.Schema.attr ~ty:R.Value.TInt "A"; R.Schema.attr ~ty:R.Value.TInt "B" ]
  in
  let edge_db edges =
    R.Database.insert_list
      (R.Database.create_relation R.Database.empty edge_schema)
      "E"
      (List.map (fun (a, b) -> R.Tuple.make [ R.Value.Int a; R.Value.Int b ]) edges)
  in
  let chain n = List.init (n - 1) (fun i -> (i, i + 1)) in
  (* sparse random digraph: long derivation paths without the chain's
     worst-case quadratic closure *)
  let sparse n =
    let st = Random.State.make [| 20; n |] in
    List.init (2 * n) (fun _ -> (Random.State.int st n, Random.State.int st n))
  in
  let program =
    Cq.Program.parse_exn
      {|
  T(X,Y) :- E(X,Y);
  T(X,Z) :- E(X,Y), T(Y,Z);
  export lambda X. VReach(X,Y) :- T(X,Y);
  cite lambda X. CVReach(X,Y) :- T(X,Y)
|}
  in
  let strat = program.Cq.Program.strat in
  let workloads =
    [
      ("chain-40", edge_db (chain 40));
      ("chain-80", edge_db (chain 80));
      ("chain-120", edge_db (chain 120));
      ("sparse-200", edge_db (sparse 200));
    ]
  in
  Printf.printf
    "transitive closure T over E, both engines run the same compiled\n\
     Plan/Eval kernel; naive re-evaluates every rule on full extents per\n\
     round, semi-naive joins only against the last round's delta\n\n";
  let widths = [ 12; 8; 10; 12; 12; 9 ] in
  header widths [ "workload"; "edges"; "closure"; "naive ms"; "semi ms"; "speedup" ];
  let rows =
    List.map
      (fun (name, db) ->
        let closure_of out =
          match R.Database.relation out "T" with
          | Some rel -> R.Relation.cardinality rel
          | None -> 0
        in
        let fast, semi_ms = timed (fun () -> Cq.Seminaive.run db strat) in
        let slow, naive_ms = timed (fun () -> Cq.Seminaive.Naive.run db strat) in
        (* correctness gate: timings mean nothing if the extents differ *)
        let identical =
          match (R.Database.relation fast "T", R.Database.relation slow "T") with
          | Some a, Some b -> R.Relation.equal a b
          | _ -> false
        in
        if not identical then failwith ("E20: semi-naive diverges on " ^ name);
        let edges =
          R.Relation.cardinality (R.Database.relation_exn db "E")
        in
        let closure = closure_of fast in
        let speedup = naive_ms /. semi_ms in
        row widths
          [
            name;
            string_of_int edges;
            string_of_int closure;
            ms naive_ms;
            ms semi_ms;
            Printf.sprintf "%.1fx" speedup;
          ];
        (name, edges, closure, naive_ms, semi_ms))
      workloads
  in
  (* cite latency through the exported closure view: cold includes the
     derivation + first rewriting/plan compilation, warm hits every
     cache *)
  let db = edge_db (chain 120) in
  let (engine, result), cold_ms =
    time_ms (fun () ->
        let engine = C.Engine.of_program ~selection:`All db program in
        (engine, C.Engine.cite engine (Cq.Parser.parse_query_exn "Q(Y) :- T(1,Y)")))
  in
  let _, warm_ms =
    timed ~runs:5 (fun () ->
        C.Engine.cite engine (Cq.Parser.parse_query_exn "Q(Y) :- T(1,Y)"))
  in
  let caps = C.Engine.describe engine in
  Printf.printf "\nengine: %s\n" (C.Engine.capabilities_to_string caps);
  Printf.printf
    "closure-view cite (chain-120, Q(Y) :- T(1,Y)): %d tuples,\n\
     cold %.2f ms (derive + rewrite + plan), warm %.2f ms\n"
    (List.length result.tuples) cold_ms warm_ms;
  let naive_total = List.fold_left (fun a (_, _, _, n, _) -> a +. n) 0. rows in
  let semi_total = List.fold_left (fun a (_, _, _, _, s) -> a +. s) 0. rows in
  write_bench_json ~experiment:"E20"
    [
      ("capabilities", C.Engine.capabilities_to_json caps);
      ( "rows",
        json_list
          (List.map
             (fun (name, edges, closure, naive_ms, semi_ms) ->
               json_obj
                 [
                   ("workload", json_str name);
                   ("edges", string_of_int edges);
                   ("closure", string_of_int closure);
                   ("naive_ms", json_ms naive_ms);
                   ("semi_ms", json_ms semi_ms);
                   ("speedup", Printf.sprintf "%.2f" (naive_ms /. semi_ms));
                 ])
             rows) );
      ("naive_ms_total", json_ms naive_total);
      ("semi_ms_total", json_ms semi_total);
      ("cite_cold_ms", json_ms cold_ms);
      ("cite_warm_ms", json_ms warm_ms);
    ];
  Printf.printf
    "(expected: semi-naive beats naive at every size and the gap widens\n\
     with chain length — naive re-derives the whole closure each round;\n\
     warm cite stays far under cold, the fixpoint is not re-run per cite)\n"

(* ------------------------------------------------------------------ *)
(* E22: a version's Datalog costs its delta — each commit's subfamily *)
(* closure continued from the previous version's vs from scratch.     *)

let e22 () =
  hr "E22  Per-commit Datalog: continued from the last version vs from scratch";
  let commits = 15 in
  Printf.printf
    "the curate program's recursive closure Sub over a Subfamily forest\n\
     (trees of about ten families); each of %d commits adds 1-3 edges\n\
     under new families, and the new version's Sub is derived twice:\n\
     continued from the previous version's fixpoint (engine_at, as a\n\
     cite at the head forces it) and from scratch (a refresh with no\n\
     ancestor); both must give the same extent\n\n"
    commits;
  let program =
    Cq.Program.parse_exn
      {|
  Sub(P,C) :- Subfamily(P,C);
  Sub(P,C) :- Subfamily(P,M), Sub(M,C)
|}
  in
  let schema =
    R.Schema.make "Subfamily"
      [
        R.Schema.attr ~ty:R.Value.TInt "Parent";
        R.Schema.attr ~ty:R.Value.TInt "Child";
      ]
  in
  let edge p c = R.Tuple.make [ R.Value.Int p; R.Value.Int c ] in
  (* up to three children a node; one edge in ten is dropped *)
  let forest rng n =
    let trees = max 1 (n / 10) in
    List.filter_map
      (fun f ->
        let pos = (f - 1) / trees and tree = (f - 1) mod trees in
        if pos = 0 || Random.State.int rng 10 = 0 then None
        else Some (edge ((((pos - 1) / 3) * trees) + tree + 1) f))
      (List.init n (fun i -> i + 1))
  in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let widths = [ 10; 8; 9; 14; 13; 9 ] in
  header widths
    [ "families"; "edges"; "closure"; "continued ms"; "scratch ms"; "speedup" ];
  let ok = function Ok v -> v | Error e -> failwith ("E22: " ^ e) in
  let rows =
    List.map
      (fun n ->
        let rng = Random.State.make [| 22; n |] in
        let db =
          R.Database.insert_list
            (R.Database.create_relation R.Database.empty schema)
            "Subfamily" (forest rng n)
        in
        let ve = C.Versioned_engine.create_program db program in
        let template = C.Versioned_engine.template ve in
        let continued () =
          C.Metrics.count (C.Versioned_engine.metrics ve)
            C.Metrics.Key.datalog_continued_derivations
        in
        let continued0 = continued () in
        let next = ref n in
        let timings =
          List.init commits (fun _ ->
              let delta =
                List.fold_left
                  (fun d _ ->
                    incr next;
                    R.Delta.insert d "Subfamily"
                      (edge (1 + Random.State.int rng n) !next))
                  R.Delta.empty
                  (List.init (1 + Random.State.int rng 3) Fun.id)
              in
              let v = ok (C.Versioned_engine.commit_delta ve delta) in
              let cont, cont_ms =
                time_ms (fun () ->
                    C.Engine.derived_database
                      (ok (C.Versioned_engine.engine_at ve v)))
              in
              let db_v =
                R.Version_store.checkout_exn (C.Versioned_engine.store ve) v
              in
              let scratch, scratch_ms =
                time_ms (fun () ->
                    C.Engine.derived_database (C.Engine.refresh template db_v))
              in
              if not (R.Database.equal cont scratch) then
                failwith "E22: continued and from-scratch closures differ";
              (cont_ms, scratch_ms))
        in
        if continued () - continued0 <> commits then
          failwith "E22: a version was not derived by continuation";
        let head = C.Versioned_engine.head ve in
        let card db name =
          R.Relation.cardinality (R.Database.relation_exn db name)
        in
        let closure =
          card
            (C.Engine.derived_database (ok (C.Versioned_engine.engine_at ve head)))
            "Sub"
        in
        let db_h =
          R.Version_store.checkout_exn (C.Versioned_engine.store ve) head
        in
        let cont_ms = median (List.map fst timings)
        and scratch_ms = median (List.map snd timings) in
        let edges = card db_h "Subfamily" in
        row widths
          [
            string_of_int n;
            string_of_int edges;
            string_of_int closure;
            Printf.sprintf "%.3f" cont_ms;
            Printf.sprintf "%.3f" scratch_ms;
            Printf.sprintf "%.1fx" (scratch_ms /. cont_ms);
          ];
        (n, edges, closure, cont_ms, scratch_ms))
      [ 1000; 4000; 16000 ]
  in
  write_bench_json ~experiment:"E22"
    [
      ("commits", string_of_int commits);
      ( "rows",
        json_list
          (List.map
             (fun (n, edges, closure, cont_ms, scratch_ms) ->
               json_obj
                 [
                   ("families", string_of_int n);
                   ("edges", string_of_int edges);
                   ("closure", string_of_int closure);
                   ("continued_ms", json_ms cont_ms);
                   ("scratch_ms", json_ms scratch_ms);
                   ("speedup", Printf.sprintf "%.2f" (scratch_ms /. cont_ms));
                 ])
             rows) );
    ];
  Printf.printf
    "(medians per commit; expected: continued stays near flat as the\n\
     forest grows, from scratch grows with it, and CI gates the speedup\n\
     at the largest size at 5x)\n"
