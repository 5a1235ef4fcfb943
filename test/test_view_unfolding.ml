(* Citing through rewriting expansions.  [Engine.cite] evaluates each
   selected rewriting's expansion over the base relations; the oracle
   here materializes every view extent itself with [Eval.result],
   evaluates the rewritings over those extents, and composes the
   citations literally.  Both must agree on tuples, expressions,
   citations and the JSON bytes of the result.  The views cover the
   shapes that make unfolding subtle: repeated head variables,
   constants in view heads and bodies, views over a recursive IDB
   predicate, partial rewritings, the contained-rewriting fallback and
   exact-size selection.  Also here: incremental maintenance, which
   finds the affected tuples through the same expansions, against a
   fresh cite after every step of a random delta stream, and the
   hash-based distinct count against a set-based one. *)

open Testutil
module C = Dc_citation
module E = C.Engine
module X = C.Cite_expr
module R = Dc_relational
module Cq = Dc_cq
module D = Dc_relational.Delta

(* ------------------------------------------------------------------ *)
(* Schema, program and views *)

let int_schema name cols =
  R.Schema.make name (List.map (fun c -> R.Schema.attr ~ty:R.Value.TInt c) cols)

let schemas =
  [
    int_schema "R" [ "A"; "B" ];
    int_schema "S" [ "A"; "B" ];
    int_schema "T" [ "A"; "B"; "C" ];
    R.Schema.make "N"
      [ R.Schema.attr ~ty:R.Value.TInt "A"; R.Schema.attr ~ty:R.Value.TStr "Name" ];
  ]

(* P is the transitive closure of R, exported as a per-node view. *)
let program =
  Cq.Program.parse_exn
    {|
  P(X,Y) :- R(X,Y);
  P(X,Z) :- R(X,Y), P(Y,Z);
  export lambda X. VP(X,Y) :- P(X,Y);
  cite lambda X. CVP(X,N) :- N(X,N)
|}

let view ?(params = "") v c =
  C.Citation_view.make_exn
    ~view:(parse (params ^ v))
    ~citations:[ parse (params ^ c) ]
    ()

(* Each view with whether it (or its citation query) reads the IDB. *)
let view_pool =
  [|
    (view ~params:"lambda X. " "VR(X,Y) :- R(X,Y)" "CR(X,N) :- N(X,N)", false);
    (* repeated head variable, parameterized *)
    (view ~params:"lambda X. " "VRep(X,X,Y) :- S(X,Y)" "CRep(X,N) :- N(X,N)", false);
    (* repeated head variable, unparameterized *)
    (view "VDiag(X,X) :- R(X,X)" "CDiag(D) :- D=\"diag\"", false);
    (* constant in the head *)
    (view ~params:"lambda X. " "VK(X,1,Y) :- T(X,Y,Z)" "CK(X,N) :- N(X,N)", false);
    (* constant in the body *)
    (view ~params:"lambda Y. " "VT2(X,Y) :- T(X,Y,2)" "CT2(Y,N) :- N(Y,N)", false);
    (view "VS(X,Y) :- S(X,Y)" "CS(D) :- D=\"all of S\"", false);
    (view ~params:"lambda X. " "VRS(X,Z) :- R(X,Y), S(Y,Z)"
       "CRS(X,N) :- N(X,N)", false);
    (view ~params:"lambda Y. " "VT(X,Y,Z) :- T(X,Y,Z)" "CT(Y,N) :- N(Y,N)", false);
    (* over the recursive IDB predicate *)
    (view ~params:"lambda Y. " "VPS(X,Y,Z) :- P(X,Y), S(Y,Z)"
       "CPS(Y,N) :- N(Y,N)", true);
    (* a citation query over the IDB predicate *)
    (view ~params:"lambda X. " "VRP(X,Y) :- R(X,Y)" "CRP(X,D) :- P(X,D)", true);
    (* restrictions: contained, not equivalent, rewritings of most
       queries over their relations *)
    (view ~params:"lambda X. " "VS1(X) :- S(X,1)" "CS1(X,N) :- N(X,N)", false);
    (view "VTT(X,Y) :- T(X,Y,Y)" "CTT(D) :- D=\"T diagonal\"", false);
  |]

(* [#] is replaced by a small constant. *)
let shapes =
  [|
    "Q(X,Y) :- R(X,Y)";
    "Q(Y) :- R(#,Y)";
    "Q(X) :- R(X,X)";
    "Q(X,Y) :- S(X,Y)";
    "Q(X) :- S(X,X)";
    "Q(Y) :- S(#,Y)";
    "Q(X,Y,Z) :- T(X,Y,Z)";
    "Q(X,Y) :- T(X,Y,2)";
    "Q(X,Y) :- T(X,Y,#)";
    "Q(X,Z) :- R(X,Y), S(Y,Z)";
    "Q(X,Z) :- R(X,Y), S(Y,Z), T(X,Z,W)";
    "Q(X) :- R(X,Y), T(Y,X,Z)";
    "Q(X,Y) :- R(X,Y), R(Y,X)";
    "Q(X) :- S(X,Y)";
    "Q(X,Y) :- T(X,Y,Z)";
    "Q(X,Y) :- P(X,Y)";
    "Q(Y) :- P(#,Y)";
    "Q(X,Z) :- P(X,Y), S(Y,Z)";
  |]

let query shape k =
  parse (String.concat (string_of_int k) (String.split_on_char '#' shapes.(shape)))

let reads_p shape = List.mem "P" (Cq.Query.predicates (query shape 0))

(* ------------------------------------------------------------------ *)
(* Databases *)

type rows = { r : (int * int) list; s : (int * int) list; t : (int * int * int) list }

let database rows =
  let db = List.fold_left R.Database.create_relation R.Database.empty schemas in
  let db = R.Database.insert_list db "R" (List.map (fun (a, b) -> int_tuple [ a; b ]) rows.r) in
  let db = R.Database.insert_list db "S" (List.map (fun (a, b) -> int_tuple [ a; b ]) rows.s) in
  let db =
    R.Database.insert_list db "T" (List.map (fun (a, b, c) -> int_tuple [ a; b; c ]) rows.t)
  in
  R.Database.insert_list db "N"
    (List.init 5 (fun k -> tuple [ int k; str (Printf.sprintf "n%d" k) ]))

let gen_rows =
  let open QCheck.Gen in
  let v = int_bound 3 in
  let* r = list_size (int_bound 7) (pair v v) in
  let* s = list_size (int_bound 7) (pair v v) in
  let* t = list_size (int_bound 7) (triple v v v) in
  return { r; s; t }

let print_rows rows =
  let pairs l = String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d%d" a b) l) in
  Printf.sprintf "R[%s] S[%s] T[%s]" (pairs rows.r) (pairs rows.s)
    (String.concat " " (List.map (fun (a, b, c) -> Printf.sprintf "%d%d%d" a b c) rows.t))

(* ------------------------------------------------------------------ *)
(* The oracle: extents materialized here, rewritings evaluated over them *)

let extents_db e =
  let full =
    List.fold_left R.Database.add_relation (E.database e)
      (R.Database.relations (E.derived_database e))
  in
  ( full,
    List.fold_left
      (fun db cv ->
        let def = C.Citation_view.definition cv in
        R.Database.add_relation db (Cq.Eval.result full def))
      full
      (C.Citation_view.Set.to_list (E.citation_views e)) )

let oracle ~fallback e (r : E.result) : E.result =
  let cviews = E.citation_views e in
  let self = Cq.Query.strip_params r.query in
  let evaluated, complete =
    if r.selected <> [] then (r.selected, true)
    else if fallback then
      match
        Dc_rewriting.Rewrite.maximally_contained
          (C.Citation_view.Set.view_set cviews)
          r.query
      with
      | [], _ -> ([ self ], true)
      | disjuncts, _ -> (disjuncts, false)
    else ([ self ], true)
  in
  let full, db = extents_db e in
  let per_tuple =
    List.fold_left
      (fun m rw ->
        List.fold_left
          (fun m (t, bindings) ->
            let existing = Option.value ~default:[] (R.Tuple.Map.find_opt t m) in
            R.Tuple.Map.add t ((rw, bindings) :: existing) m)
          m (Cq.Eval.run db rw))
      R.Tuple.Map.empty evaluated
  in
  let resolve (l : X.leaf) =
    C.Citation_view.cite (C.Citation_view.Set.find_exn cviews l.view) full l.params
  in
  let policy = E.policy e in
  let tuples =
    List.map
      (fun (tuple, contribs) ->
        let expr = normal (Dc_oracle.Definitions.tuple_expr cviews (List.rev contribs)) in
        { E.tuple; expr; citations = C.Policy.eval ~resolve policy expr })
      (R.Tuple.Map.bindings per_tuple)
  in
  let result_expr =
    normal
      (Dc_oracle.Definitions.result_expr
         (List.map
            (fun (tc : E.tuple_citation) -> Dc_oracle.Raw_expr.of_expr tc.expr)
            tuples))
  in
  {
    r with
    tuples;
    result_expr;
    result_citations = C.Policy.eval ~resolve policy result_expr;
    complete;
  }

let same_citations = List.equal C.Citation.equal

let same_result (a : E.result) (b : E.result) =
  List.equal
    (fun (x : E.tuple_citation) (y : E.tuple_citation) ->
      R.Tuple.equal x.tuple y.tuple
      && X.compare x.expr y.expr = 0
      && same_citations x.citations y.citations)
    a.tuples b.tuples
  && X.compare a.result_expr b.result_expr = 0
  && same_citations a.result_citations b.result_citations
  && Bool.equal a.complete b.complete
  && String.equal (Dc_oracle.Result_json.of_result a) (Dc_oracle.Result_json.of_result b)

let summary (r : E.result) =
  Printf.sprintf "complete %b, tuples [%s], %s" r.complete
    (String.concat "; "
       (List.map
          (fun (tc : E.tuple_citation) ->
            R.Tuple.to_string tc.tuple ^ "=" ^ X.to_string tc.expr)
          r.tuples))
    (X.to_string r.result_expr)

(* ------------------------------------------------------------------ *)
(* Cite = cite over materialized extents *)

type case = {
  rows : rows;
  views : int list;  (** indices into [view_pool] *)
  cites : (int * int) list;  (** shape, constant *)
  selection : E.selection;
  partial : bool;
  fallback : bool;
  alt_r : C.Policy.rewriting_choice;
}

let selection_name = function
  | `All -> "all"
  | `Min_estimated_size -> "min-estimated"
  | `Min_exact_size -> "min-exact"

let print_case c =
  Printf.sprintf "%s, views [%s], selection %s, partial %b, fallback %b, %s, cites [%s]"
    (print_rows c.rows)
    (String.concat ","
       (List.map (fun i -> C.Citation_view.name (fst view_pool.(i))) c.views))
    (selection_name c.selection) c.partial c.fallback
    (C.Policy.to_string (C.Policy.make ~alt_r:c.alt_r ()))
    (String.concat "; "
       (List.map (fun (s, k) -> Cq.Query.to_string (query s k)) c.cites))

let gen_views =
  let open QCheck.Gen in
  let* picks = list_size (int_range 2 9) (int_bound (Array.length view_pool - 1)) in
  return (List.sort_uniq Int.compare picks)

let gen_case =
  let open QCheck.Gen in
  let* rows = gen_rows in
  let* views = gen_views in
  let* cites =
    list_size (int_range 1 4)
      (pair (int_bound (Array.length shapes - 1)) (int_bound 3))
  in
  let* selection = oneofl [ `All; `Min_estimated_size; `Min_exact_size ] in
  (* a partial rewriting citing nothing is often the cheapest: keep
     partial search rare enough that view rewritings get selected *)
  let* partial = frequencyl [ (1, true); (2, false) ] in
  let* fallback = bool in
  let* alt_r = oneofl C.Policy.[ Keep_all; First; Min_size ] in
  return { rows; views; cites; selection; partial; fallback; alt_r }

let engine c db =
  E.of_program
    ~policy:(C.Policy.make ~alt_r:c.alt_r ())
    ~selection:c.selection ~partial:c.partial ~fallback_contained:c.fallback
    ~views:(List.map (fun i -> fst view_pool.(i)) c.views)
    db program

let agrees c =
  let e = engine c (database c.rows) in
  List.iter
    (fun (shape, k) ->
      let q = query shape k in
      let got = E.cite e q in
      let want = oracle ~fallback:c.fallback e got in
      if not (same_result got want) then
        QCheck.Test.fail_reportf "%s:@.unfolded %s@.extents  %s"
          (Cq.Query.to_string q) (summary got) (summary want))
    c.cites;
  true

let prop_cite_matches_extents =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cite through expansions = cite over extents"
       ~count:500
       (QCheck.make ~print:print_case gen_case)
       agrees)

(* Rewritings whose head unification renames a cited variable or binds
   it to a constant, evaluated directly: [Compute.run] over the base
   relations against [Eval.run] over the extents. *)
let test_substitution_reads () =
  let cviews =
    C.Citation_view.Set.of_list [ fst view_pool.(1); fst view_pool.(3) ]
  in
  let views = C.Citation_view.Set.view_set cviews in
  let rows =
    {
      r = [];
      s = [ (0, 1); (1, 1); (2, 3); (3, 3); (0, 2) ];
      t = [ (0, 1, 5); (1, 2, 2); (3, 3, 3); (1, 1, 1) ];
    }
  in
  let db = database rows in
  let extents =
    List.fold_left
      (fun acc cv ->
        R.Database.add_relation acc
          (Cq.Eval.result db (C.Citation_view.definition cv)))
      db
      (C.Citation_view.Set.to_list cviews)
  in
  List.iter
    (fun src ->
      let rw = parse src in
      let t = C.Compute.template views cviews rw in
      let got =
        List.map
          (fun (tuple, ps) -> (tuple, C.Compute.projected_expr [ (t, ps) ]))
          (C.Compute.run db t)
      in
      let want =
        List.map
          (fun (tuple, bindings) ->
            (tuple, normal (Dc_oracle.Definitions.tuple_expr cviews [ (rw, bindings) ])))
          (Cq.Eval.run extents rw)
      in
      Alcotest.(check (list string))
        src
        (List.map (fun (tp, x) -> R.Tuple.to_string tp ^ "=" ^ X.to_string x) want)
        (List.map (fun (tp, x) -> R.Tuple.to_string tp ^ "=" ^ X.to_string x) got))
    [
      (* the cited A is equated with B *)
      "Q(A,Y) :- VRep(A,B,Y)";
      "Q(B,Y) :- VRep(A,B,Y)";
      "Q(Y) :- VRep(A,B,Y)";
      (* the cited A is bound to a constant *)
      "Q(Y) :- VRep(A,3,Y)";
      "Q(A,Y) :- VRep(A,1,Y)";
      (* a head constant meets a rewriting constant, and conflicts *)
      "Q(X,Y) :- VK(X,1,Y)";
      "Q(X,Y) :- VK(X,2,Y)";
      "Q(X,W,Y) :- VK(X,W,Y)";
      (* two cited atoms sharing variables *)
      "Q(A,Y) :- VRep(A,B,Y), VK(B,C,A)";
    ]

(* ------------------------------------------------------------------ *)
(* Incremental maintenance = a fresh cite, after every step *)

type op = Ins of string * int list | Del of string * int

let print_op = function
  | Ins (rel, vs) ->
      Printf.sprintf "+%s(%s)" rel (String.concat "," (List.map string_of_int vs))
  | Del (rel, i) -> Printf.sprintf "-%s#%d" rel i

let gen_op =
  let open QCheck.Gen in
  let v = int_bound 3 in
  frequency
    [
      (2, map2 (fun a b -> Ins ("R", [ a; b ])) v v);
      (2, map2 (fun a b -> Ins ("S", [ a; b ])) v v);
      (2, map3 (fun a b c -> Ins ("T", [ a; b; c ])) v v v);
      (1, map (fun a -> Ins ("N", [ a ])) v);
      (2, map (fun i -> Del ("R", i)) (int_bound 9));
      (2, map (fun i -> Del ("S", i)) (int_bound 9));
      (2, map (fun i -> Del ("T", i)) (int_bound 9));
      (1, map (fun i -> Del ("N", i)) (int_bound 9));
    ]

let delta_of db ops =
  List.fold_left
    (fun d -> function
      | Ins ("N", [ a ]) -> D.insert d "N" (tuple [ int a; str (Printf.sprintf "m%d" a) ])
      | Ins (rel, vs) -> D.insert d rel (int_tuple vs)
      | Del (rel, i) -> (
          match R.Relation.tuples (R.Database.relation_exn db rel) with
          | [] -> d
          | ts -> D.delete d rel (List.nth ts (i mod List.length ts))))
    D.empty ops

type stream = {
  start : rows;
  base_views : int list;
  shape : int;
  k : int;
  steps : op list list;
}

let print_stream s =
  Printf.sprintf "%s, views [%s], %s, steps [%s]" (print_rows s.start)
    (String.concat ","
       (List.map (fun i -> C.Citation_view.name (fst view_pool.(i))) s.base_views))
    (Cq.Query.to_string (query s.shape s.k))
    (String.concat "; "
       (List.map (fun ops -> String.concat "," (List.map print_op ops)) s.steps))

(* Registrations read base relations only, so neither the views nor the
   query may read the IDB predicate. *)
let base_only = List.filter (fun i -> not (snd view_pool.(i))) (List.init (Array.length view_pool) Fun.id)

let gen_stream =
  let open QCheck.Gen in
  let* start = gen_rows in
  let* picks = list_size (int_range 1 5) (oneofl base_only) in
  let* shape =
    oneofl (List.filter (fun s -> not (reads_p s)) (List.init (Array.length shapes) Fun.id))
  in
  let* k = int_bound 3 in
  let* steps = list_size (int_range 1 6) (list_size (int_range 1 3) gen_op) in
  return { start; base_views = List.sort_uniq Int.compare picks; shape; k; steps }

let maintained s =
  let views = List.map (fun i -> fst view_pool.(i)) s.base_views in
  let fresh db = E.create ~selection:`All ~partial:true db views in
  let q = query s.shape s.k in
  let db0 = database s.start in
  let reg0 = C.Incremental.register (fresh db0) q in
  ignore
    (List.fold_left
       (fun (reg, db, i) ops ->
         let delta = delta_of db ops in
         let reg = C.Incremental.apply_delta reg delta in
         let db = D.apply db delta in
         let got = C.Incremental.to_result reg in
         let want = E.cite (fresh db) q in
         if not (same_result got { want with rewritings = want.selected; stats = got.stats })
         then
           QCheck.Test.fail_reportf "step %d:@.maintained %s@.fresh      %s" i
             (summary got) (summary want);
         (reg, db, i + 1))
       (reg0, db0, 1) s.steps);
  true

let prop_incremental_matches_fresh =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"registration = fresh cite after every delta"
       ~count:200
       (QCheck.make ~print:print_stream gen_stream)
       maintained)

(* ------------------------------------------------------------------ *)
(* Hash-based distinct counts *)

let gen_counted =
  let open QCheck.Gen in
  let* arity = int_range 1 4 in
  let* rows = list_size (int_bound 40) (list_repeat arity (int_bound 4)) in
  let* positions = list_size (int_range 1 4) (int_bound (arity - 1)) in
  return (arity, rows, positions)

let prop_distinct_count =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"hash distinct_count = set-based count" ~count:500
       (QCheck.make
          ~print:(fun (arity, rows, positions) ->
            Printf.sprintf "arity %d, %d rows, positions [%s]" arity (List.length rows)
              (String.concat "," (List.map string_of_int positions)))
          gen_counted)
       (fun (arity, rows, positions) ->
         let rel =
           R.Relation.of_list
             (int_schema "W" (List.init arity (Printf.sprintf "c%d")))
             (List.map int_tuple rows)
         in
         let set_count ps =
           R.Tuple.Set.cardinal
             (R.Relation.fold
                (fun t acc -> R.Tuple.Set.add (R.Tuple.project t ps) acc)
                rel R.Tuple.Set.empty)
         in
         R.Relation.distinct_count rel positions = set_count positions
         && List.for_all
              (fun col ->
                (* cold, then memoized *)
                R.Relation.distinct rel col = set_count [ col ]
                && R.Relation.distinct rel col = set_count [ col ])
              (List.init arity Fun.id)))

let suite =
  [
    Alcotest.test_case "substitution reads renamed and constant variables"
      `Quick test_substitution_reads;
    prop_cite_matches_extents;
    prop_incremental_matches_fresh;
    prop_distinct_count;
  ]
