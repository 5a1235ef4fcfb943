(* A second realistic scenario, DrugBank-flavoured: a relational
   database combining chemical and pathway data (paper §1 names DrugBank
   and Reactome as databases publishing citation instructions).

   Demonstrates:
   - multiple citation queries on one view (creators + version blurb);
   - a citation function (F_V) that abbreviates long author lists, the
     "et al" policy the paper's §3 "Size of citations" discusses;
   - a query needing a join of two citation views;
   - a recursive Datalog program (pathway reachability) whose exported
     view cites everything upstream of a reaction. *)

module R = Dc_relational
module C = Dc_citation
module Cq = Dc_cq

let parse = Cq.Parser.parse_query_exn

let schema_drug =
  R.Schema.make "Drug" ~key:[ "DID" ]
    [
      R.Schema.attr ~ty:R.Value.TInt "DID";
      R.Schema.attr ~ty:R.Value.TStr "DName";
      R.Schema.attr ~ty:R.Value.TStr "Formula";
    ]

let schema_pathway =
  R.Schema.make "Pathway" ~key:[ "PID" ]
    [
      R.Schema.attr ~ty:R.Value.TInt "PID";
      R.Schema.attr ~ty:R.Value.TStr "PWName";
    ]

let schema_drug_pathway =
  R.Schema.make "DrugPathway" ~key:[ "DID"; "PID" ]
    [ R.Schema.attr ~ty:R.Value.TInt "DID"; R.Schema.attr ~ty:R.Value.TInt "PID" ]

let schema_pathway_link =
  R.Schema.make "PathwayLink" ~key:[ "Src"; "Dst" ]
    [ R.Schema.attr ~ty:R.Value.TInt "Src"; R.Schema.attr ~ty:R.Value.TInt "Dst" ]

let schema_curator =
  R.Schema.make "Curator" ~key:[ "PID"; "CName" ]
    [ R.Schema.attr ~ty:R.Value.TInt "PID"; R.Schema.attr ~ty:R.Value.TStr "CName" ]

let database () =
  let open R.Value in
  let db =
    List.fold_left R.Database.create_relation R.Database.empty
      [
        schema_drug;
        schema_pathway;
        schema_drug_pathway;
        schema_pathway_link;
        schema_curator;
      ]
  in
  let db =
    R.Database.insert_list db "Drug"
      (List.map
         (fun (d, n, f) -> R.Tuple.make [ Int d; Str n; Str f ])
         [
           (1, "Aspirin", "C9H8O4");
           (2, "Ibuprofen", "C13H18O2");
           (3, "Metformin", "C4H11N5");
         ])
  in
  let db =
    R.Database.insert_list db "Pathway"
      (List.map
         (fun (p, n) -> R.Tuple.make [ Int p; Str n ])
         [
           (10, "Prostaglandin synthesis");
           (11, "AMPK signaling");
           (12, "Arachidonic acid release");
           (13, "Membrane phospholipid metabolism");
         ])
  in
  let db =
    R.Database.insert_list db "DrugPathway"
      (List.map
         (fun (d, p) -> R.Tuple.make [ Int d; Int p ])
         [ (1, 10); (2, 10); (3, 11) ])
  in
  let db =
    (* pathway precedence: 13 feeds 12 feeds 10 *)
    R.Database.insert_list db "PathwayLink"
      (List.map
         (fun (s, d) -> R.Tuple.make [ Int s; Int d ])
         [ (13, 12); (12, 10) ])
  in
  R.Database.insert_list db "Curator"
    (List.map
       (fun (p, c) -> R.Tuple.make [ Int p; Str c ])
       [
         (10, "Curator A");
         (10, "Curator B");
         (10, "Curator C");
         (10, "Curator D");
         (11, "Curator E");
         (12, "Curator F");
         (13, "Curator G");
       ])

(* F_V: keep at most 3 curator snippets, appending an "et al" marker —
   the abbreviation policy of conventional citations. *)
let et_al citation =
  let snippets = C.Citation.snippets citation in
  if List.length snippets <= 3 then citation
  else
    let kept = List.filteri (fun i _ -> i < 3) snippets in
    C.Citation.make ~view:(C.Citation.view citation)
      ~params:(C.Citation.params citation)
      ~snippets:
        (kept @ [ C.Snippet.make ~source:"abbrev" [ ("note", R.Value.Str "et al") ] ])

let v_drugs =
  C.Citation_view.make_exn
    ~view:(parse "VDrugs(DID,DName,Formula) :- Drug(DID,DName,Formula)")
    ~citations:[ parse "CVDrugs(D) :- D=\"DrugBank release 5.1\"" ]
    ()

let v_pathway =
  C.Citation_view.make_exn ~post:et_al
    ~view:(parse "lambda PID. VPathway(PID,PWName) :- Pathway(PID,PWName)")
    ~citations:
      [
        parse "lambda PID. CVPathway(PID,CName) :- Curator(PID,CName)";
        parse "CVPathwaySrc(D) :- D=\"Reactome-style pathway db\"";
      ]
    ()

let v_drug_pathway =
  C.Citation_view.make_exn
    ~view:(parse "VDrugPathway(DID,PID) :- DrugPathway(DID,PID)")
    ~citations:[ parse "CVDrugPathway(D) :- D=\"DrugBank release 5.1\"" ]
    ()

(* "Cite everything upstream of this reaction": pathway reachability is
   a recursive view, so it enters through a Datalog program — the
   engine materializes [Upstream] with semi-naive evaluation and the
   exported view (with its curator citation query) behaves like any
   other citation view. *)
let upstream_program =
  Cq.Program.parse_exn
    {|
  Upstream(S,D) :- PathwayLink(S,D);
  Upstream(S,D) :- PathwayLink(S,M), Upstream(M,D);
  export lambda PID. VUpstream(PID,S,PWName) :- Upstream(S,PID), Pathway(S,PWName);
  cite lambda PID. CVUpstream(PID,CName) :- Upstream(S,PID), Curator(S,CName);
  cite CVUpstreamSrc(D) :- D="Reactome-style pathway db"
|}

let () =
  let db = database () in
  let engine =
    C.Engine.create ~selection:`All db [ v_drugs; v_pathway; v_drug_pathway ]
  in
  let query =
    parse
      "Q(DName,PWName) :- Drug(DID,DName,Formula), DrugPathway(DID,PID), \
       Pathway(PID,PWName)"
  in
  let result = C.Engine.cite engine query in
  Format.printf "Query: %a@.@." Cq.Query.pp query;
  Format.printf "Rewritings:@.";
  List.iter (fun r -> Format.printf "  %a@." Cq.Query.pp r) result.rewritings;
  Format.printf "@.Per-tuple citations:@.";
  List.iter
    (fun (tc : C.Engine.tuple_citation) ->
      Format.printf "  %a : %a@." R.Tuple.pp tc.tuple C.Cite_expr.pp tc.expr)
    result.tuples;
  Format.printf
    "@.Concrete citation for (Aspirin, Prostaglandin synthesis) — note the \
     'et al' abbreviation on the 4-curator pathway:@.";
  (match
     List.find_opt
       (fun (tc : C.Engine.tuple_citation) ->
         R.Tuple.equal tc.tuple
           (R.Tuple.make
              [ R.Value.Str "Aspirin"; R.Value.Str "Prostaglandin synthesis" ]))
       result.tuples
   with
  | None -> print_endline "  (tuple not found?)"
  | Some tc ->
      print_endline (C.Fmt_citation.render C.Fmt_citation.Human tc.citations));
  Format.printf "@.Whole-answer citation as RIS:@.";
  print_endline (C.Fmt_citation.render C.Fmt_citation.Ris result.result_citations);
  (* --- recursive citation view ------------------------------------ *)
  let engine_up = C.Engine.of_program ~selection:`All db upstream_program in
  Format.printf
    "@.Everything upstream of 'Prostaglandin synthesis' (recursive \
     reachability, curators of every upstream pathway cited):@.";
  let up_query =
    parse "QUp(S,PWName) :- Upstream(S,10), Pathway(S,PWName)"
  in
  let up_result = C.Engine.cite engine_up up_query in
  List.iter
    (fun (tc : C.Engine.tuple_citation) ->
      Format.printf "  %a : %a@." R.Tuple.pp tc.tuple C.Cite_expr.pp tc.expr)
    up_result.tuples;
  print_endline
    (C.Fmt_citation.render C.Fmt_citation.Human up_result.result_citations)
