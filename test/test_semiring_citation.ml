open Testutil
module C = Dc_citation
module Cq = Dc_cq
module R = Dc_relational
module Prov = Dc_provenance
module X = Dc_citation.Cite_expr

(* The paper grounds its citation algebra in provenance semirings
   (Green et al.): joint use is ·, alternatives are +.  This suite
   checks that correspondence computationally: annotate every tuple of
   a materialized view with the polynomial indeterminate of its
   citation leaf CV(p̄); then the N[X] annotation of an output tuple
   under annotated evaluation of a rewriting must equal the polynomial
   reading of the formal expression Compute builds for that tuple
   (modulo idempotence: the formal algebra deduplicates alternatives
   and absorbs exponents, so we compare after normalizing the
   polynomial the same way). *)

let leaf_token cv tuple =
  let def = C.Citation_view.definition cv in
  let positions = Cq.Query.param_positions def in
  let params =
    List.map2
      (fun p pos -> (p, R.Tuple.get tuple pos))
      (C.Citation_view.params cv) positions
  in
  X.leaf ~view:(C.Citation_view.name cv) ~params

(* collapse coefficients and exponents: the citation algebra is
   idempotent in both + and ·, N[X] is not *)
let idempotent_normal_form p =
  Prov.Polynomial.monomials p
  |> List.map (fun (_, vars) -> List.map fst vars)
  |> List.map (List.sort_uniq String.compare)
  |> List.sort_uniq compare

let expr_token_poly expr =
  (* reuse Annotated.citation_polynomial, which names leaves the same
     way *)
  idempotent_normal_form
    (Dc_repro.Annotated.citation_polynomial (normal expr))

let test_rewriting_matches_annotated_eval () =
  let db = paper_db () in
  let cviews = C.Citation_view.Set.of_list Dc_gtopdb.Paper_views.all in
  let engine =
    C.Engine.create ~selection:`All
      ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
      db Dc_gtopdb.Paper_views.all
  in
  let view_db = view_database engine in
  (* annotate every view tuple with its leaf token *)
  let annot rel tuple =
    match C.Citation_view.Set.find cviews rel with
    | None -> Prov.Polynomial.one (* base relations: no citation *)
    | Some cv ->
        Prov.Polynomial.var
          (Format.asprintf "%a" X.pp (leaf_token cv tuple))
  in
  let module M = Dc_repro.Annotated.Make (Prov.Polynomial.Free) in
  let annotated = M.of_database annot view_db in
  (* one rewriting at a time: its Alt-of-Joints expression must match *)
  let rewritings =
    (Dc_rewriting.Rewrite.search
       (C.Citation_view.Set.view_set cviews)
       Dc_gtopdb.Paper_views.query_q)
      .Dc_rewriting.Rewrite.queries
  in
  Alcotest.(check int) "two rewritings" 2 (List.length rewritings);
  List.iter
    (fun rw ->
      let eval_results = M.eval annotated rw in
      List.iter
        (fun (tuple, poly) ->
          let bindings =
            List.assoc tuple
              (List.map
                 (fun (t, bs) -> (t, bs))
                 (Cq.Eval.run view_db rw))
          in
          let expr =
            Dc_oracle.Definitions.tuple_expr_for_rewriting cviews rw bindings
          in
          Alcotest.(check bool)
            (Format.asprintf "tuple %a via %s" R.Tuple.pp tuple
               (Cq.Query.name rw))
            true
            (expr_token_poly expr = idempotent_normal_form poly))
        eval_results)
    rewritings

let test_counting_semiring_counts_bindings () =
  (* the counting interpretation of the same machinery counts the
     bindings behind each answer: Calcitonin has two *)
  let db = paper_db () in
  let engine = C.Engine.create ~selection:`All db Dc_gtopdb.Paper_views.all in
  let view_db = view_database engine in
  let module MC = Dc_repro.Annotated.Make (Prov.Semiring.Counting) in
  let counted = MC.of_database (fun _ _ -> 1) view_db in
  let rw =
    parse "Q1(FName) :- V1(FID,FName,Desc), V3(FID,Text)"
  in
  Alcotest.(check int) "two derivations for Calcitonin" 2
    (MC.eval_annotation counted rw (tuple [ str "Calcitonin" ]));
  Alcotest.(check int) "one for Dopamine" 1
    (MC.eval_annotation counted rw (tuple [ str "Dopamine receptors" ]))

let prop_semiring_correspondence_generated =
  qtest "citation expr = N[X] annotation on generated dbs"
    QCheck.(int_bound 200)
    (fun seed ->
      let db =
        Dc_gtopdb.Generator.generate ~seed
          ~config:
            (Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config
               ~families:6)
          ()
      in
      let cviews = C.Citation_view.Set.of_list Dc_gtopdb.Paper_views.all in
      let engine =
        C.Engine.create ~selection:`All
          ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
          db Dc_gtopdb.Paper_views.all
      in
      let view_db = view_database engine in
      let annot rel tuple =
        match C.Citation_view.Set.find cviews rel with
        | None -> Prov.Polynomial.one
        | Some cv ->
            Prov.Polynomial.var
              (Format.asprintf "%a" X.pp (leaf_token cv tuple))
      in
      let module M = Dc_repro.Annotated.Make (Prov.Polynomial.Free) in
      let annotated = M.of_database annot view_db in
      let rw = parse "Q1(FName) :- V1(FID,FName,Desc), V3(FID,Text)" in
      List.for_all
        (fun (tuple, poly) ->
          let bindings = List.assoc tuple (Cq.Eval.run view_db rw) in
          let expr = Dc_oracle.Definitions.tuple_expr_for_rewriting cviews rw bindings in
          expr_token_poly expr = idempotent_normal_form poly)
        (M.eval annotated rw))

let suite =
  [
    Alcotest.test_case "rewriting = annotated eval" `Quick
      test_rewriting_matches_annotated_eval;
    Alcotest.test_case "counting counts bindings" `Quick
      test_counting_semiring_counts_bindings;
    prop_semiring_correspondence_generated;
  ]
