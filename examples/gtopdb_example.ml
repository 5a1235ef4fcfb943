(* The paper's worked example (section 2), end to end.

   Builds the GtoPdb-like instance with two 'Calcitonin' families,
   registers the citation views V1 (parameterized by FID), V2 and V3,
   and asks for the citation of
     Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text).

   Expected output (paper):
   - rewritings Q1 (via V1,V3) and Q2 (via V2,V3);
   - formal citation of tuple (Calcitonin):
       (CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3);
   - with union policies and +R = min size, the concrete citation is
     the one via Q2, i.e. CV2·CV3. *)

module C = Dc_citation
module R = Dc_relational

let () =
  let db = Dc_gtopdb.Paper_views.example_database () in
  Format.printf "=== Base database ===@.";
  List.iter
    (fun r -> Format.printf "%s: %d tuples@." (R.Relation.name r) (R.Relation.cardinality r))
    (R.Database.relations db);
  Format.printf "@.";

  (* Evaluate Q with +R = keep-all so the full formal expression with
     both rewritings is visible, as in the paper's derivation. *)
  let engine_all =
    C.Engine.create ~selection:`All
      ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
      db Dc_gtopdb.Paper_views.all
  in
  let result = C.Engine.cite engine_all Dc_gtopdb.Paper_views.query_q in

  Format.printf "=== Query ===@.%a@.@." Dc_cq.Query.pp result.query;
  Format.printf "=== Minimal equivalent rewritings ===@.";
  List.iter (fun r -> Format.printf "%a@." Dc_cq.Query.pp r) result.rewritings;

  Format.printf "@.=== Per-tuple formal citations ===@.";
  List.iter
    (fun (t : C.Engine.tuple_citation) ->
      Format.printf "%a : %a@." R.Tuple.pp t.tuple C.Cite_expr.pp t.expr)
    result.tuples;

  (* Now the paper's policy: union everywhere, +R = min size.  The
     engine pre-selects the cheapest rewriting from the estimate, so V1
     is never even evaluated for citations. *)
  let engine = C.Engine.create db Dc_gtopdb.Paper_views.all in
  let result = C.Engine.cite engine Dc_gtopdb.Paper_views.query_q in
  Format.printf "@.=== Selected rewriting (min estimated size) ===@.";
  List.iter (fun r -> Format.printf "%a@." Dc_cq.Query.pp r) result.selected;

  Format.printf "@.=== Concrete citation of the query answer ===@.";
  print_endline
    (C.Fmt_citation.render_result C.Fmt_citation.Human
       ~query:(Dc_cq.Query.to_string result.query)
       result.result_citations);

  Format.printf "@.=== The same, as BibTeX ===@.";
  print_endline (C.Fmt_citation.render C.Fmt_citation.Bibtex result.result_citations)
