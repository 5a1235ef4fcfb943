(* Shared helpers for the test suites. *)

module R = Dc_relational
module Cq = Dc_cq

let parse = Cq.Parser.parse_query_exn

let tuple values = R.Tuple.make values

let str s = R.Value.Str s
let int i = R.Value.Int i
let int_tuple ints = R.Tuple.make (List.map int ints)

(* A tiny two-relation database used across CQ tests:
   R = {(1,2),(2,3),(3,3)}   S = {(2,"a"),(3,"b")} *)
let rs_db () =
  let r_schema =
    R.Schema.make "R" [ R.Schema.attr ~ty:R.Value.TInt "A"; R.Schema.attr ~ty:R.Value.TInt "B" ]
  in
  let s_schema =
    R.Schema.make "S" [ R.Schema.attr ~ty:R.Value.TInt "A"; R.Schema.attr ~ty:R.Value.TStr "C" ]
  in
  R.Database.empty
  |> (fun db -> R.Database.create_relation db r_schema)
  |> (fun db -> R.Database.create_relation db s_schema)
  |> (fun db -> R.Database.insert_list db "R" [ int_tuple [ 1; 2 ]; int_tuple [ 2; 3 ]; int_tuple [ 3; 3 ] ])
  |> fun db ->
  R.Database.insert_list db "S"
    [ tuple [ int 2; str "a" ]; tuple [ int 3; str "b" ] ]

let paper_db () = Dc_gtopdb.Paper_views.example_database ()

(* A versioned citation's answer tuples, in answer order. *)
let cited_tuples (c : Dc_citation.Versioned_engine.cited) =
  List.map (fun (tc : Dc_citation.Engine.tuple_citation) -> tc.tuple)
    c.result.tuples

(* Alcotest testables *)
let query = Alcotest.testable Cq.Query.pp Cq.Query.equal_syntactic
let tuple_t = Alcotest.testable R.Tuple.pp R.Tuple.equal
let value_t = Alcotest.testable R.Value.pp R.Value.equal

let cite_expr =
  Alcotest.testable Dc_citation.Cite_expr.pp Dc_citation.Cite_expr.equal

(* The oracle's expression: the literal tree, normalized literally,
   then rebuilt through the constructors, which on a normal tree have
   nothing left to do. *)
let normal e = Dc_oracle.Raw_expr.(to_expr (normalize e))

let sorted_tuples rel = R.Relation.tuples rel

let check_tuples msg expected actual =
  Alcotest.(check (list tuple_t)) msg expected (List.sort R.Tuple.compare actual)

(* Evaluate a query and return sorted output tuples. *)
let eval_tuples db q = List.map fst (Cq.Eval.run db q)

(* Every citation view's extent over the engine's base and derived
   relations. *)
let view_database e =
  let module C = Dc_citation in
  List.fold_left
    (fun db cv ->
      let def = C.Citation_view.definition cv in
      R.Database.add_relation db (Cq.Eval.result (C.Engine.merged_database e) def))
    R.Database.empty
    (C.Citation_view.Set.to_list (C.Engine.citation_views e))

(* Client-side triage of a server response line: [`Ok json] for a
   success object, [`Err json] for an ERR line (the payload without its
   prefix), [`Malformed] for anything else. *)
let classify_response line =
  let line =
    if String.ends_with ~suffix:"\r" line then String.sub line 0 (String.length line - 1)
    else line
  in
  if String.starts_with ~prefix:"ERR " line then
    `Err (String.sub line 4 (String.length line - 4))
  else if String.starts_with ~prefix:"{" line then `Ok line
  else `Malformed

(* Whether a response line is the server's BUSY shed. *)
let is_busy_response line = classify_response line = `Err {|{"error":"BUSY"}|}

(* A snippet's value for a field name. *)
let field s name = List.assoc_opt name (Dc_citation.Snippet.fields s)

(* Every citation format under its canonical name. *)
let formats =
  Dc_citation.Fmt_citation.
    [ ("human", Human); ("bibtex", Bibtex); ("ris", Ris); ("xml", Xml); ("json", Json) ]

let qtest name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 gen prop)

(* Two relations store the same tuples down to the bits of each value
   (equal-comparing values such as [Float 0.0] and [Float (-0.0)] differ
   here), know the same cardinality and hash to the same multiset hash:
   what a bulk-built relation must share with one built by inserts. *)
let same_stored a b =
  let same_value x y =
    match (x, y) with
    | R.Value.Float f, R.Value.Float g ->
        Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
    | x, y -> R.Value.equal x y
  in
  let hash r =
    let buf = Buffer.create 16 in
    R.Multiset_hash.add_to_buffer buf (R.Relation.multiset_hash r);
    Buffer.contents buf
  in
  R.Relation.equal a b
  && R.Relation.cardinality a = R.Relation.cardinality b
  && Array.length (R.Relation.scan a) = R.Relation.cardinality a
  && Array.for_all2
       (fun t u -> Array.length t = Array.length u && Array.for_all2 same_value t u)
       (R.Relation.scan a) (R.Relation.scan b)
  && String.equal (hash a) (hash b)
