open Testutil
module C = Dc_citation
module VR = Dc_repro.View_registry
module VS = Dc_relational.Version_store
module D = Dc_relational.Delta
module Nt = Dc_rdf.Ntriples
module T = Dc_rdf.Triple
module G = Dc_rdf.Graph

(* --- View registry ------------------------------------------------ *)

(* a second-generation view set: V2/V3 only (say V1's per-family
   citations were retired) *)
let new_era = [ Dc_gtopdb.Paper_views.v2; Dc_gtopdb.Paper_views.v3 ]

let test_epochs () =
  let reg = VR.create Dc_gtopdb.Paper_views.all in
  let reg = VR.update reg ~from_version:3 new_era in
  Alcotest.(check int) "two epochs" 2 (List.length (VR.epochs reg));
  Alcotest.(check (list string)) "epoch 0" [ "V1"; "V2"; "V3" ]
    (List.sort String.compare
       (List.map C.Citation_view.name (VR.active_at reg 0)));
  Alcotest.(check (list string)) "epoch at v2 still old" [ "V1"; "V2"; "V3" ]
    (List.sort String.compare
       (List.map C.Citation_view.name (VR.active_at reg 2)));
  Alcotest.(check (list string)) "epoch at v3 new" [ "V2"; "V3" ]
    (List.sort String.compare
       (List.map C.Citation_view.name (VR.active_at reg 5)))

let test_update_must_advance () =
  let reg = VR.create Dc_gtopdb.Paper_views.all in
  let reg = VR.update reg ~from_version:3 new_era in
  Alcotest.(check bool) "non-advancing epoch rejected" true
    (try
       ignore (VR.update reg ~from_version:3 new_era);
       false
     with Invalid_argument _ -> true)

let test_cite_at_uses_era_views () =
  let store = VS.create (paper_db ()) in
  (* advance the store so version 3 exists *)
  let store =
    List.fold_left
      (fun s i ->
        let d =
          D.insert D.empty "Committee"
            (tuple [ int 11; str (Printf.sprintf "M%d" i) ])
        in
        fst (VS.commit_delta s d))
      store [ 1; 2; 3 ]
  in
  let reg = VR.create Dc_gtopdb.Paper_views.all in
  let reg = VR.update reg ~from_version:3 new_era in
  let q = Dc_gtopdb.Paper_views.query_q in
  (* at version 0 both rewritings exist (V1 era) *)
  (match VR.cite_at ~selection:`All ~store reg ~version:0 q with
  | Error e -> Alcotest.fail e
  | Ok result ->
      Alcotest.(check int) "two rewritings in old era" 2
        (List.length result.rewritings));
  (* at version 3 the V1 rewriting is gone *)
  (match VR.cite_at ~selection:`All ~store reg ~version:3 q with
  | Error e -> Alcotest.fail e
  | Ok result ->
      Alcotest.(check int) "one rewriting in new era" 1
        (List.length result.rewritings));
  Alcotest.(check bool) "unknown version errors" true
    (Result.is_error (VR.cite_at ~store reg ~version:99 q))

let test_registry_resolve () =
  let store = VS.create (paper_db ()) in
  let reg = VR.create Dc_gtopdb.Paper_views.all in
  let cite () =
    match
      VR.cite_at ~store reg ~version:(VS.head store)
        Dc_gtopdb.Paper_views.query_q
    with
    | Ok r -> List.map (fun (tc : C.Engine.tuple_citation) -> tc.tuple) r.tuples
    | Error e -> Alcotest.fail e
  in
  let cited = cite () in
  Alcotest.(check int) "cites" 2 (List.length cited);
  Alcotest.(check bool) "re-cites to the same tuples" true
    (List.equal Dc_relational.Tuple.equal (cite ()) cited)

(* --- N-Triples ----------------------------------------------------- *)

let test_parse_line () =
  (match Nt.parse_line "<hela> <rdf:type> <CellLine> ." with
  | Ok (Some t) ->
      Alcotest.(check string) "subj" "hela" t.subj;
      Alcotest.(check bool) "iri obj" true (T.equal_obj t.obj (T.iri "CellLine"))
  | _ -> Alcotest.fail "iri triple");
  (match Nt.parse_line "<hela> <label> \"HeLa \\\"cells\\\"\" ." with
  | Ok (Some t) ->
      Alcotest.(check bool) "escaped literal" true
        (T.equal_obj t.obj (T.lit_str "HeLa \"cells\""))
  | _ -> Alcotest.fail "literal triple");
  (match Nt.parse_line "<x> <count> 42 ." with
  | Ok (Some t) ->
      Alcotest.(check bool) "int literal" true (T.equal_obj t.obj (T.lit_int 42))
  | _ -> Alcotest.fail "int triple");
  (match Nt.parse_line "# just a comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment");
  (match Nt.parse_line "   " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank");
  Alcotest.(check bool) "missing dot" true
    (Result.is_error (Nt.parse_line "<a> <b> <c>"));
  Alcotest.(check bool) "unterminated iri" true
    (Result.is_error (Nt.parse_line "<a <b> <c> ."))

let test_parse_document_with_line_numbers () =
  match Nt.parse "<a> <b> <c> .\nbroken line\n" with
  | Error e ->
      Alcotest.(check bool) "mentions line 2" true
        (String.length e >= 6 && String.sub e 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "should fail"

let test_roundtrip () =
  let g =
    G.of_list
      [
        T.make "hela" T.rdf_type (T.iri "CellLine");
        T.make "hela" "label" (T.lit_str "He\"La\\x");
        T.make "hela" "passages" (T.lit_int 17);
      ]
  in
  match Nt.parse (Nt.render g) with
  | Error e -> Alcotest.fail e
  | Ok g' ->
      Alcotest.(check int) "same size" (G.size g) (G.size g');
      List.iter
        (fun t -> Alcotest.(check bool) (Nt.render_triple t) true (G.mem g' t))
        (G.triples g)

let test_file_io () =
  let g = G.of_list [ T.make "s" "p" (T.iri "o") ] in
  let path = Filename.temp_file "datacite" ".nt" in
  Nt.save g path;
  let g' = Result.get_ok (Nt.load path) in
  Sys.remove path;
  Alcotest.(check int) "loaded" 1 (G.size g')

let suite =
  [
    Alcotest.test_case "registry epochs" `Quick test_epochs;
    Alcotest.test_case "registry update validation" `Quick test_update_must_advance;
    Alcotest.test_case "cite_at era views" `Quick test_cite_at_uses_era_views;
    Alcotest.test_case "registry resolve" `Quick test_registry_resolve;
    Alcotest.test_case "ntriples parse_line" `Quick test_parse_line;
    Alcotest.test_case "ntriples line numbers" `Quick test_parse_document_with_line_numbers;
    Alcotest.test_case "ntriples roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "ntriples file io" `Quick test_file_io;
  ]
