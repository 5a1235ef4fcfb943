(* Differential suite for Engine.cite: the engine groups projected
   bindings, builds data-independent expressions once and memoizes leaf
   resolution.  The oracle below is the literal composition it replaces:
   the interpreter's [Dc_oracle.Reference.run] per evaluated rewriting, the
   per-tuple regrouping into a map, [Definitions.tuple_expr] normalized
   by [Raw_expr.normalize], and [Policy.eval] per tuple and over the
   [Agg], with every leaf resolved from scratch. *)

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
          (Dc_oracle.Reference.run db rw))
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
        let expr = normal (Dc_oracle.Definitions.tuple_expr cviews (List.rev contribs)) in
        (t, expr, C.Policy.eval ~resolve policy expr))
      (R.Tuple.Map.bindings per_tuple)
  in
  let result_expr =
    normal
      (Dc_oracle.Definitions.result_expr
         (List.map (fun (_, x, _) -> Dc_oracle.Raw_expr.of_expr x) tuples))
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

(* ------------------------------------------------------------------ *)
(* The wire fold.  [Engine.summary] and [Versioned_engine.summary_at]
   fold a cite's answers into what a response carries; each must equal
   the full cite's answer count, [Agg] expression and citations (as
   text, the bytes a response holds), completeness and rewriting count.
   Drawn: every selection (with [`All], several rewritings' runs are
   merged), the contained fallback, data-dependent and constant
   templates, and registration-served heads, before and after a commit
   that adds answers and a committee member (so a citation query's
   answer changes too).  A registered read must also equal, in every
   field but [from_registration], the same read of an unregistered twin
   engine given the same commits. *)

module V = C.Versioned_engine

let citation_texts cs = List.map (Format.asprintf "%a" C.Citation.pp) cs

let same_summary (s : E.summary) (r : E.result) =
  s.answers = List.length r.tuples
  && String.equal (X.to_string s.summary_expr) (X.to_string r.result_expr)
  && X.compare s.summary_expr r.result_expr = 0
  && List.equal String.equal
       (citation_texts s.summary_citations)
       (citation_texts r.result_citations)
  && s.summary_complete = r.complete
  && s.rewriting_count = List.length r.rewritings

let same_stamped (s : E.summary V.stamped) (r : V.cited) =
  s.version = r.version && s.timestamp = r.timestamp
  && String.equal s.digest r.digest
  && s.from_registration = r.from_registration
  && same_summary s.result r.result

type fold_case = { case : case; registered : bool; commit : bool }

let print_fold_case f =
  Printf.sprintf "%s, registered %b, commit %b" (print_case f.case)
    f.registered f.commit

let gen_fold_case =
  let open QCheck.Gen in
  let* case = gen_case in
  let* registered = bool in
  let+ commit = bool in
  { case; registered; commit }

let commit_delta =
  R.Delta.empty
  |> (fun d -> R.Delta.insert d "Family" (tuple [ int 900; str "Newfam"; str "N1" ]))
  |> (fun d -> R.Delta.insert d "FamilyIntro" (tuple [ int 900; str "New intro" ]))
  |> fun d -> R.Delta.insert d "Committee" (tuple [ int 1; str "Zed Newman" ])

(* Registered and unregistered reads of one version: every field but
   [from_registration]. *)
let same_summaries (a : E.summary) (b : E.summary) =
  a.answers = b.answers
  && String.equal (X.to_string a.summary_expr) (X.to_string b.summary_expr)
  && X.compare a.summary_expr b.summary_expr = 0
  && List.equal String.equal
       (citation_texts a.summary_citations)
       (citation_texts b.summary_citations)
  && a.summary_complete = b.summary_complete
  && a.rewriting_count = b.rewriting_count

let same_results (a : E.result) (b : E.result) =
  let texts qs = List.map Cq.Query.to_string qs in
  String.equal (Cq.Query.to_string a.query) (Cq.Query.to_string b.query)
  && List.equal String.equal (texts a.rewritings) (texts b.rewritings)
  && List.equal String.equal (texts a.selected) (texts b.selected)
  && List.length a.tuples = List.length b.tuples
  && List.for_all2
       (fun (x : E.tuple_citation) (y : E.tuple_citation) ->
         R.Tuple.equal x.tuple y.tuple
         && X.compare x.expr y.expr = 0
         && List.equal String.equal (citation_texts x.citations)
              (citation_texts y.citations))
       a.tuples b.tuples
  && X.compare a.result_expr b.result_expr = 0
  && List.equal String.equal
       (citation_texts a.result_citations)
       (citation_texts b.result_citations)
  && a.complete = b.complete && a.stats = b.stats

let same_stamps (a : _ V.stamped) (b : _ V.stamped) =
  a.version = b.version && a.timestamp = b.timestamp
  && String.equal a.digest b.digest

let fold_agrees f =
  let c = f.case in
  let q = parse (query_text c) in
  let views = snd view_sets.(c.views) in
  let make () =
    E.create ~policy:c.policy ~selection:c.selection ~partial:c.partial
      ~fallback_contained:c.fallback (database c) views
  in
  (* the fold on a cold engine, the cite on another *)
  let folded = E.summary (make ()) q in
  same_summary folded (E.cite (make ()) q)
  &&
  let versioned () =
    V.of_engine
    @@ E.create ~policy:c.policy ~selection:c.selection ~partial:c.partial
         ~fallback_contained:c.fallback (database c) views
  in
  let ve = versioned () and twin = versioned () in
  if f.registered then Result.get_ok (V.register ve q);
  if f.commit then
    List.iter
      (fun ve -> ignore (Result.get_ok (V.commit_delta ve commit_delta)))
      [ ve; twin ];
  (* A registration pins its selection: past its own version it reads as
     a fresh cite only when no other selection could be made. *)
  let unpinned = c.selection = `All || folded.rewriting_count <= 1 in
  List.for_all
    (fun v ->
      match (V.summary_at ve v q, V.cite_at ve v q) with
      | Ok s, Ok r ->
          same_stamped s r
          && s.from_registration = (f.registered && v = V.head ve)
          && ((s.from_registration && f.commit && not unpinned)
             ||
             match (V.summary_at twin v q, V.cite_at twin v q) with
             | Ok ts, Ok tr ->
                 same_stamps s ts && same_summaries s.result ts.result
                 && same_stamps r tr && same_results r.result tr.result
             | _ -> false)
      | _ -> false)
    (V.versions ve)

let prop_fold_matches_cite =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"wire fold = Engine.cite / cite_at" ~count:300
       (QCheck.make ~print:print_fold_case gen_fold_case)
       fold_agrees)

(* Values that compare equal but print apart ([Float 0.0] and
   [Float (-0.0)]) in two answers' view parameters: the [Agg] keeps one
   of the two equal children, the one the dedup met first, so the fold
   must meet the answers in the cite's order — tuple order, on the
   engine and on a registration's rows alike. *)
let test_fold_order () =
  let schema =
    R.Schema.make "R"
      [ R.Schema.attr ~ty:R.Value.TInt "N"; R.Schema.attr ~ty:R.Value.TFloat "F" ]
  in
  let db =
    R.Database.insert_list
      (R.Database.create_relation R.Database.empty schema)
      "R"
      [
        tuple [ int 1; R.Value.Float 0.0 ];
        tuple [ int 2; R.Value.Float (-0.0) ];
      ]
  in
  let views = [ view ~params:"lambda F. " "VR(N,F) :- R(N,F)" "CVR(F,N) :- R(N,F)" ] in
  let q = parse "Q(N) :- R(N,F)" in
  let expr_text (s : E.summary) = X.to_string s.summary_expr in
  let e = E.create db views in
  let r = E.cite e q in
  Alcotest.(check string) "engine: fold = cite"
    (X.to_string r.result_expr)
    (expr_text (E.summary e q));
  Alcotest.(check bool) "engine: every field" true (same_summary (E.summary e q) r);
  let ve = V.of_engine @@ E.create db views in
  Result.get_ok (V.register ve q);
  let s = Result.get_ok (V.summary_at ve 0 q)
  and c = Result.get_ok (V.cite_at ve 0 q) in
  Alcotest.(check bool) "served from the registration" true s.from_registration;
  Alcotest.(check string) "registration: fold = to_result"
    (X.to_string c.result.result_expr)
    (expr_text s.result);
  Alcotest.(check bool) "registration: every field" true (same_stamped s c)

(* ------------------------------------------------------------------ *)
(* Shape-keyed rewriting plans.  One long-lived engine cites a sequence
   of queries, so most of them reach the plan cache through another
   query of their shape (a different constant in the same place); each
   cite must equal a fresh engine's, and its rewritings must be the
   search's on the query itself, with and without partial rewritings
   and the contained fallback.  Constants are drawn typed: [Int 11]
   and [Float 11.0] print alike, as do two floats equal to six digits;
   some equal constants of the view definitions, and the others sort
   below, between and above them. *)

module Value = R.Value
module M = C.Metrics

let constant_pool =
  [|
    Value.Int 2; Value.Int 11; Value.Int 12; Value.Int 21; Value.Float 11.0;
    Value.Float 1234567.0; Value.Float 1234568.0; Value.Str "11";
    Value.Str "Calcitonin"; Value.Str "1st"; Value.Str "Dopamine intro";
    Value.Str "Kim Neve"; Value.Str "Walter Born";
  |]

(* Views whose definitions carry constants, including ones drawn above:
   a query constant equal to one of them stays in the plan key. *)
let shape_view_sets =
  [|
    ("paper", Dc_gtopdb.Paper_views.all);
    ( "paper+constants",
      Dc_gtopdb.Paper_views.all
      @ [
          view "V11(FName,Desc) :- Family(11,FName,Desc)"
            "C11(D) :- D=\"family eleven\"";
          view ~params:"lambda FID. "
            "VC(FID,Text) :- FamilyIntro(FID,Text), \
             Family(FID,\"Calcitonin\",D)"
            "CVC(FID,PName) :- Committee(FID,PName)";
          view "VK(FID,One) :- Committee(FID,\"Kim Neve\"), One=1"
            "CVK(D) :- D=\"Kim\"";
        ] );
  |]

let preds = [| ("Family", 3); ("FamilyIntro", 2); ("Committee", 2) |]

(* A query shape: atoms over variables and numbered slots, a head, and
   instances filling the slots with constants. *)
type arg = Avar of string | Aslot of int

type shape_case = {
  sviews : int;
  fallback_contained : bool;
  spartial : bool;
  queries : Cq.Query.t list;
}

let term_text = function
  | Cq.Term.Var v -> v
  | Cq.Term.Const c -> (
      match c with
      | Value.Int i -> Printf.sprintf "%d" i
      | Value.Float f -> Printf.sprintf "%.1ff" f
      | Value.Str s -> Printf.sprintf "%S" s
      | c -> Value.to_string c)

let query_text q =
  let terms ts = String.concat "," (List.map term_text ts) in
  Printf.sprintf "Q(%s) :- %s" (terms (Cq.Query.head q))
    (String.concat ", "
       (List.map
          (fun a ->
            Printf.sprintf "%s(%s)" (Cq.Atom.pred a) (terms (Cq.Atom.args a)))
          (Cq.Query.body q)))

let print_shape_case c =
  Printf.sprintf "views %s, fallback %b, partial %b:\n  %s"
    (fst shape_view_sets.(c.sviews))
    c.fallback_contained c.spartial
    (String.concat "\n  " (List.map query_text c.queries))

let gen_shape =
  let open QCheck.Gen in
  let vars = [| "A"; "B"; "C"; "D" |] in
  let* n = int_range 1 3 in
  let* atoms =
    list_repeat n
      (let* p, arity = oneofa preds in
       let+ args =
         list_repeat arity
           (frequency
              [
                (3, map (fun i -> Avar vars.(i)) (int_bound 3));
                (2, map (fun i -> Aslot i) (int_bound 2));
              ])
       in
       (p, args))
  in
  let body_vars =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, args) ->
           List.filter_map (function Avar v -> Some v | Aslot _ -> None) args)
         atoms)
  in
  let* head_vars =
    match body_vars with
    | [] -> return []
    | vs ->
        let+ keep = list_repeat (List.length vs) bool in
        List.filteri (fun i _ -> List.nth keep i) vs
  in
  let* head_slot =
    frequency [ (3, return None); (1, map Option.some (int_bound 2)) ]
  in
  let+ instances =
    list_size (int_range 1 4) (array_repeat 3 (oneofa constant_pool))
  in
  (* the engine's canonical form: atoms grouped by predicate, variables
     named by first occurrence *)
  let atoms =
    List.stable_sort (fun (p, _) (q, _) -> String.compare p q) atoms
  in
  let order =
    List.fold_left
      (fun acc v -> if List.mem v acc then acc else acc @ [ v ])
      []
      (head_vars
      @ List.concat_map
          (fun (_, args) ->
            List.filter_map (function Avar v -> Some v | Aslot _ -> None) args)
          atoms)
  in
  let rename v =
    Printf.sprintf "X%d" (Option.get (List.find_index (String.equal v) order))
  in
  List.map
    (fun consts ->
      let term = function
        | Avar v -> Cq.Term.Var (rename v)
        | Aslot i -> Cq.Term.Const consts.(i)
      in
      let head =
        List.map (fun v -> Cq.Term.Var (rename v)) head_vars
        @ Option.fold ~none:[]
            ~some:(fun i -> [ Cq.Term.Const consts.(i) ])
            head_slot
      in
      let head = if head = [] then [ Cq.Term.Const consts.(0) ] else head in
      Cq.Query.make_exn ~name:"Q" ~head
        ~body:
          (List.map (fun (p, args) -> Cq.Atom.make p (List.map term args)) atoms)
        ())
    instances

let gen_shape_case =
  let open QCheck.Gen in
  let* sviews = int_bound (Array.length shape_view_sets - 1) in
  let* fallback_contained = bool in
  let* spartial = bool in
  let* shapes = list_size (int_range 1 4) gen_shape in
  (* interleave the shapes' instances, so a shape's later instances
     follow other shapes' plans into the cache *)
  let+ queries = shuffle_l (List.concat shapes) in
  { sviews; fallback_contained; spartial; queries }

let texts qs = List.map Cq.Query.to_string qs

let same_answer (a : E.result) (b : E.result) =
  List.length a.tuples = List.length b.tuples
  && List.for_all2
       (fun (x : E.tuple_citation) (y : E.tuple_citation) ->
         R.Tuple.equal x.tuple y.tuple
         && X.compare x.expr y.expr = 0
         && same_citations x.citations y.citations)
       a.tuples b.tuples
  && X.compare a.result_expr b.result_expr = 0
  && same_citations a.result_citations b.result_citations
  && a.complete = b.complete

(* Queries are drawn in the engine's canonical form, and every plan is
   its own shape's search, so its rewritings carry the query's own
   variable names and must be the search's, as text. *)
let shape_plans_agree c =
  let views = snd shape_view_sets.(c.sviews) in
  let make () =
    E.create ~fallback_contained:c.fallback_contained ~partial:c.spartial
      (paper_db ()) views
  in
  let e = make () in
  List.for_all
    (fun q ->
      let r = E.cite e q in
      let fresh = E.cite (make ()) q in
      let searched =
        (Dc_rewriting.Rewrite.search ~partial:c.spartial
           (C.Citation_view.Set.view_set (E.citation_views e))
           q)
          .queries
      in
      same_answer r fresh
      && List.equal String.equal (texts r.rewritings) (texts searched)
      && List.equal String.equal (texts r.selected) (texts fresh.selected))
    c.queries

(* Rewriting sorts a candidate's atoms, constants by value, so a shape
   records the order of its lifted constants among themselves and
   around the view constants (here [11]).  Each pair below differs in
   that order alone. *)
let test_shape_keeps_constant_order () =
  let queries =
    List.map parse
      [
        "Q(X0) :- FamilyIntro(X0,21), FamilyIntro(X0,12)";
        "Q(X0) :- FamilyIntro(X0,12), FamilyIntro(X0,21)";
        "Q(X0) :- FamilyIntro(X0,21), FamilyIntro(X0,11)";
        "Q(X0) :- FamilyIntro(X0,2), FamilyIntro(X0,11)";
      ]
  in
  List.iter
    (fun fallback_contained ->
      Alcotest.(check bool)
        "long-lived engine = fresh engine = search" true
        (shape_plans_agree
           { sviews = 1; fallback_contained; spartial = false; queries }))
    [ false; true ]

let prop_shape_plans =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"shape-keyed plans: long-lived engine = fresh engine = search"
       ~count:300
       (QCheck.make ~print:print_shape_case gen_shape_case)
       shape_plans_agree)

let suite =
  [
    Alcotest.test_case "paper example, all rewritings" `Quick test_paper_example;
    prop_matches_oracle;
    Alcotest.test_case "shape keys keep the constants' order" `Quick
      test_shape_keeps_constant_order;
    prop_shape_plans;
    Alcotest.test_case "the fold meets answers in tuple order" `Quick
      test_fold_order;
    prop_fold_matches_cite;
  ]
