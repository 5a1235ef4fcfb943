(* XML citation (paper §3, "Other models"): curated databases also ship
   XML exports, and the citation unit there is an element whose *tag*
   plays the role the resource class plays in RDF.  The document is
   encoded relationally and the ordinary citation engine does the rest. *)

module C = Dc_citation
module X = Dc_xml

let export =
  {|<?xml version="1.0"?>
<!-- nightly GtoPdb-like export -->
<database name="GtoPdb" release="2026.1">
  <family id="11" name="Calcitonin">
    <intro>1st</intro>
    <member name="Debbie Hay"/>
    <member name="David Poyner"/>
  </family>
  <family id="12" name="Calcitonin">
    <intro>2nd</intro>
  </family>
  <family id="21" name="Dopamine receptors">
    <member name="Kim Neve"/>
  </family>
</database>|}

let () =
  let doc = X.Xml_parser.parse_exn export in
  Format.printf "parsed export rooted at <%s>@."
    (Option.value ~default:"?" (X.Node.tag doc));
  let db = X.Subtree_view.encode doc in
  Format.printf "relational encoding:@.";
  List.iter
    (fun r ->
      Format.printf "%s: %d tuples@." (Dc_relational.Relation.name r)
        (Dc_relational.Relation.cardinality r))
    (Dc_relational.Database.relations db);
  Format.printf "@.";

  let views =
    [
      X.Subtree_view.tag_citation_view ~tag:"family"
        ~blurb:"IUPHAR/BPS Guide to PHARMACOLOGY, XML export 2026.1";
      X.Subtree_view.tag_citation_view ~tag:"member"
        ~blurb:"IUPHAR/BPS Guide to PHARMACOLOGY, XML export 2026.1";
    ]
  in
  List.iter
    (fun eid ->
      match X.Subtree_view.cite_element db ~views ~eid with
      | Error e -> Format.printf "error: %s@." e
      | Ok (result, tag) ->
          Format.printf "=== element %d (<%s>) ===@." eid tag;
          Format.printf "formal: %a@." C.Cite_expr.pp result.result_expr;
          print_endline
            (C.Fmt_citation.render C.Fmt_citation.Human result.result_citations);
          print_newline ())
    (X.Subtree_view.element_id db ~tag:"family")
