(* Differential suite for Engine.cite: the engine groups projected
   bindings, builds data-independent expressions once and memoizes leaf
   resolution.  The oracle below is the literal composition it replaces:
   the interpreter's [Eval.Reference.run] per evaluated rewriting, the
   per-tuple regrouping into a map, [Compute.tuple_expr] normalized, and
   [Policy.eval] per tuple and over the [Agg], with every leaf resolved
   from scratch. *)

open Testutil
module C = Dc_citation
module E = C.Engine
module X = C.Cite_expr
module R = Dc_relational
module Cq = Dc_cq

type oracle = {
  tuples : (R.Tuple.t * X.t * C.Citation.Set.t) list;
  result_expr : X.t;
  result_citations : C.Citation.Set.t;
}

let oracle ~fallback e (r : E.result) =
  let cviews = E.citation_views e in
  let self = Cq.Query.strip_params r.query in
  let evaluated =
    if r.selected <> [] then r.selected
    else if fallback then
      match
        Dc_rewriting.Rewrite.maximally_contained
          (C.Citation_view.Set.view_set cviews)
          r.query
      with
      | [], _ -> [ self ]
      | disjuncts, _ -> disjuncts
    else [ self ]
  in
  let db = E.merged_database e in
  let per_tuple =
    List.fold_left
      (fun m rw ->
        List.fold_left
          (fun m (t, bindings) ->
            let existing = Option.value ~default:[] (R.Tuple.Map.find_opt t m) in
            R.Tuple.Map.add t ((rw, bindings) :: existing) m)
          m
          (Cq.Eval.Reference.run db rw))
      R.Tuple.Map.empty evaluated
  in
  let resolve (l : X.leaf) =
    C.Citation_view.cite
      (C.Citation_view.Set.find_exn cviews l.view)
      (E.database e) l.params
  in
  let policy = E.policy e in
  let tuples =
    List.map
      (fun (t, contribs) ->
        let expr = X.normalize (C.Compute.tuple_expr cviews (List.rev contribs)) in
        (t, expr, C.Policy.eval ~resolve policy expr))
      (R.Tuple.Map.bindings per_tuple)
  in
  let result_expr =
    X.normalize (C.Compute.result_expr (List.map (fun (_, x, _) -> x) tuples))
  in
  { tuples; result_expr; result_citations = C.Policy.eval ~resolve policy result_expr }

(* ------------------------------------------------------------------ *)
(* Cases *)

let view ?(params = "") v c =
  C.Citation_view.make_exn
    ~view:(parse (params ^ v))
    ~citations:[ parse (params ^ c) ]
    ()

let view_sets =
  [|
    ("paper", Dc_gtopdb.Paper_views.all);
    ( "paper+committee",
      Dc_gtopdb.Paper_views.all
      @ [
          view ~params:"lambda FID. " "V4(FID,PName) :- Committee(FID,PName)"
            "CV4(FID,Text) :- FamilyIntro(FID,Text)";
        ] );
    ( "slices",
      [
        Dc_gtopdb.Paper_views.v3;
        view ~params:"lambda FID. "
          "VA(FID,FName) :- Family(FID,FName,Desc), FamilyIntro(FID,T)"
          "CVA(FID,PName) :- Committee(FID,PName)";
        view "VB(FID,FName) :- Family(FID,FName,Desc), Committee(FID,P)"
          "CVB(D) :- D=\"slice B\"";
      ] );
    (* two data-independent slices overlapping on some tuples *)
    ( "constant slices",
      [
        view "VB(FID,FName) :- Family(FID,FName,Desc), Committee(FID,P)"
          "CVB(D) :- D=\"slice B\"";
        view "VC(FID,FName) :- Family(FID,FName,Desc), FamilyIntro(FID,T)"
          "CVC(D) :- D=\"slice C\"";
      ] );
  |]

(* [#] is replaced by a family id, so the shapes cover queries with
   and without constants. *)
let shapes =
  [|
    "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
    "Q(FID,FName,Desc) :- Family(FID,FName,Desc)";
    "Q(FName) :- Family(FID,FName,Desc)";
    "Q(FID,FName) :- Family(FID,FName,Desc)";
    "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)";
    "Q(FID,PName) :- Committee(FID,PName)";
    "Q(FName) :- Family(FID,FName,Desc), Committee(FID,P), FamilyIntro(FID,T)";
    "Q(FName,TName) :- Family(FID,FName,Desc), TargetFamily(TID,FID), \
     Target(TID,TName,TType)";
    "Q(FName,Desc) :- Family(#,FName,Desc)";
    "Q(FName,Text) :- Family(#,FName,Desc), FamilyIntro(#,Text)";
    "Q(Text) :- FamilyIntro(#,Text)";
    "Q(FID,Text) :- Family(FID,FName,Desc), FamilyIntro(FID,Text), \
     Committee(#,P)";
  |]

type case = {
  seed : int;
  families : int;
  views : int;
  shape : int;
  fid : int;
  selection : E.selection;
  partial : bool;
  fallback : bool;
  policy : C.Policy.t;
}

let selection_name = function
  | `All -> "all"
  | `Min_estimated_size -> "min-estimated"
  | `Min_exact_size -> "min-exact"

let query_text c =
  String.concat (string_of_int c.fid) (String.split_on_char '#' shapes.(c.shape))

let print_case c =
  Printf.sprintf
    "seed %d, %d families, views %s, %s, selection %s, partial %b, \
     fallback %b, policy %s"
    c.seed c.families (fst view_sets.(c.views)) (query_text c)
    (selection_name c.selection) c.partial c.fallback (C.Policy.to_string c.policy)

let gen_case =
  let open QCheck.Gen in
  let combiner = oneofl C.Policy.[ Union; Join ] in
  let* seed = int_bound 10_000 in
  let* families = int_range 1 6 in
  let* views = int_bound (Array.length view_sets - 1) in
  let* shape = int_bound (Array.length shapes - 1) in
  let* fid = int_range 1 (families + 1) in
  let* selection = oneofl [ `All; `Min_estimated_size; `Min_exact_size ] in
  let* partial = bool in
  let* fallback = bool in
  let* joint = combiner in
  let* alt = combiner in
  (* [Join] over the whole answer multiplies set sizes: keep it rare *)
  let* agg = frequencyl C.Policy.[ (3, Union); (1, Join) ] in
  let* alt_r = oneofl C.Policy.[ Keep_all; First; Min_size ] in
  return
    {
      seed;
      families;
      views;
      shape;
      fid;
      selection;
      partial;
      fallback;
      policy = C.Policy.make ~joint ~alt ~agg ~alt_r ();
    }

let database c =
  let config =
    {
      (Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config
         ~families:c.families)
      with
      duplicate_name_ratio = 0.5;
      committee_min = 1;
      committee_max = 3;
      intro_ratio = 0.7;
      targets_per_family = 2;
    }
  in
  Dc_gtopdb.Generator.generate ~config ~seed:c.seed ()

let same_citations = List.equal C.Citation.equal

let agrees c =
  let e =
    E.create ~policy:c.policy ~selection:c.selection ~partial:c.partial
      ~fallback_contained:c.fallback (database c)
      (snd view_sets.(c.views))
  in
  let r = E.cite e (parse (query_text c)) in
  let o = oracle ~fallback:c.fallback e r in
  List.length r.tuples = List.length o.tuples
  && List.for_all2
       (fun (tc : E.tuple_citation) (t, x, cs) ->
         R.Tuple.equal tc.tuple t
         && X.compare tc.expr x = 0
         && same_citations tc.citations cs)
       r.tuples o.tuples
  && X.compare r.result_expr o.result_expr = 0
  && same_citations r.result_citations o.result_citations

let prop_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Engine.cite = seed composition" ~count:300
       (QCheck.make ~print:print_case gen_case)
       agrees)

(* The paper's worked example through the lambda view V1 and the
   constant views V2/V3, with both rewritings kept (so [+R] combines a
   data-dependent and a data-independent alternative). *)
let test_paper_example () =
  List.iter
    (fun alt_r ->
      let e =
        E.create ~selection:`All
          ~policy:(C.Policy.make ~alt_r ())
          (paper_db ()) Dc_gtopdb.Paper_views.all
      in
      let r = E.cite e Dc_gtopdb.Paper_views.query_q in
      let o = oracle ~fallback:false e r in
      Alcotest.(check (list string))
        "expressions"
        (List.map (fun (_, x, _) -> X.to_string x) o.tuples)
        (List.map (fun (tc : E.tuple_citation) -> X.to_string tc.expr) r.tuples);
      Alcotest.(check bool) "citations" true
        (List.for_all2
           (fun (tc : E.tuple_citation) (_, _, cs) ->
             same_citations tc.citations cs)
           r.tuples o.tuples
        && same_citations r.result_citations o.result_citations))
    C.Policy.[ Keep_all; First; Min_size ]

let suite =
  [
    Alcotest.test_case "paper example, all rewritings" `Quick test_paper_example;
    prop_matches_oracle;
  ]
