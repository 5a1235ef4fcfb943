open Testutil
module Cq = Dc_cq
module C = Dc_citation

let rule = Cq.Parser.parse_rule_exn

(* substring check, for error-message assertions *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Rules: parsing and safety *)

let test_rule_parse () =
  let r = rule "T(X,Y) :- E(X,Y)" in
  Alcotest.(check string) "head pred" "T" (Cq.Rule.head_pred r);
  Alcotest.(check int) "one literal" 1 (List.length (Cq.Rule.body r));
  let r = rule "S(X) :- V(X), not B(X)" in
  Alcotest.(check int) "positive" 1 (List.length (Cq.Rule.positive r));
  Alcotest.(check int) "negative" 1 (List.length (Cq.Rule.negative r));
  Alcotest.(check (list (pair string bool)))
    "body preds carry polarity"
    [ ("V", false); ("B", true) ]
    (Cq.Rule.body_preds r)

let test_rule_safety () =
  (match Cq.Parser.parse_rule "T(X,Z) :- E(X,Y)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsafe head variable accepted");
  match Cq.Parser.parse_rule "S(X) :- V(X), not B(X,Y)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsafe negated variable accepted"

let test_rule_equality_elim () =
  (* the parser eliminates equalities by substitution, like queries *)
  let r = rule "T(X,Y) :- E(X,Y), Y=3" in
  Alcotest.(check bool) "constant propagated" true
    (List.exists
       (function
         | Cq.Rule.Pos a ->
             List.exists
               (function Cq.Term.Const _ -> true | _ -> false)
               (Cq.Atom.args a)
         | Cq.Rule.Neg _ -> false)
       (Cq.Rule.body r))

(* ------------------------------------------------------------------ *)
(* Stratification *)

let strat_exn rules = Cq.Stratify.run_exn (List.map rule rules)

let test_stratify_order () =
  let s =
    strat_exn
      [
        "Above(X,Y) :- T(X,Y), Top(Y)";
        "T(X,Y) :- E(X,Y)";
        "T(X,Z) :- E(X,Y), T(Y,Z)";
      ]
  in
  let st p = Option.get (Cq.Stratify.stratum_of s p) in
  Alcotest.(check bool) "T before Above" true (st "T" < st "Above");
  Alcotest.(check bool) "T recursive" true (Cq.Stratify.is_recursive s "T");
  Alcotest.(check bool) "Above not recursive" false
    (Cq.Stratify.is_recursive s "Above")

let test_stratify_mutual () =
  let s =
    strat_exn
      [
        "Even(X) :- Zero(X)";
        "Even(Y) :- Odd(X), Succ(X,Y)";
        "Odd(Y) :- Even(X), Succ(X,Y)";
      ]
  in
  Alcotest.(check (option int)) "same stratum"
    (Cq.Stratify.stratum_of s "Even")
    (Cq.Stratify.stratum_of s "Odd");
  Alcotest.(check bool) "both recursive" true
    (Cq.Stratify.is_recursive s "Even" && Cq.Stratify.is_recursive s "Odd")

let test_stratify_rejects_negation_through_recursion () =
  let rules =
    List.map rule [ "P(X) :- E(X,Y), not Q(X)"; "Q(X) :- E(X,Y), P(X)" ]
  in
  match Cq.Stratify.run rules with
  | Error e ->
      Alcotest.(check bool) "mentions stratifiability" true
        (contains ~affix:"not stratifiable" e)
  | Ok _ -> Alcotest.fail "negation through recursion accepted"

let test_stratified_negation_ok () =
  let s =
    strat_exn
      [
        "T(X,Y) :- E(X,Y)";
        "T(X,Z) :- E(X,Y), T(Y,Z)";
        "NotSelf(X,Y) :- T(X,Y), not E(X,Y)";
      ]
  in
  let st p = Option.get (Cq.Stratify.stratum_of s p) in
  Alcotest.(check bool) "negation lands higher" true (st "T" < st "NotSelf")

(* ------------------------------------------------------------------ *)
(* Semi-naive evaluation *)

let edge_db edges =
  let schema =
    R.Schema.make "E"
      [ R.Schema.attr ~ty:R.Value.TInt "A"; R.Schema.attr ~ty:R.Value.TInt "B" ]
  in
  R.Database.insert_list
    (R.Database.create_relation R.Database.empty schema)
    "E"
    (List.map (fun (a, b) -> int_tuple [ a; b ]) edges)

let card db p =
  match R.Database.relation db p with
  | None -> 0
  | Some rel -> R.Relation.cardinality rel

let tc_rules = [ "T(X,Y) :- E(X,Y)"; "T(X,Z) :- E(X,Y), T(Y,Z)" ]

let test_seminaive_chain () =
  let db = edge_db [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let out = Cq.Seminaive.run db (strat_exn tc_rules) in
  Alcotest.(check int) "chain closure" 10 (card out "T");
  Alcotest.(check bool) "input untouched" false (R.Database.mem_relation db "T")

let test_seminaive_cycle () =
  let db = edge_db [ (1, 2); (2, 3); (3, 1) ] in
  let out = Cq.Seminaive.run db (strat_exn tc_rules) in
  Alcotest.(check int) "cycle closure is complete graph" 9 (card out "T")

let test_seminaive_negation () =
  let db = edge_db [ (1, 2); (2, 3); (3, 4) ] in
  let out =
    Cq.Seminaive.run db
      (strat_exn (tc_rules @ [ "Derived(X,Y) :- T(X,Y), not E(X,Y)" ]))
  in
  (* T = 6 pairs, 3 of them are asserted edges *)
  Alcotest.(check int) "derived-only pairs" 3 (card out "Derived")

let test_seminaive_missing_edb_is_empty () =
  let out = Cq.Seminaive.run R.Database.empty (strat_exn tc_rules) in
  Alcotest.(check int) "empty closure" 0 (card out "T");
  Alcotest.(check bool) "no placeholder leaked" false
    (R.Database.mem_relation out "E")

(* Differential suite: semi-naive must agree with the naive reference
   on every IDB predicate, across program shapes (recursion, mutual
   recursion, repeated variables, stratified negation, empty strata)
   and random edge relations. *)

let program_templates =
  [
    tc_rules;
    (* mutual recursion *)
    [
      "P(X,Y) :- E(X,Y)";
      "P(X,Z) :- E(X,Y), Q(Y,Z)";
      "Q(X,Y) :- E(X,Y)";
      "Q(X,Z) :- E(X,Y), P(Y,Z)";
    ];
    (* repeated variables + projection stratum over the closure *)
    tc_rules @ [ "Self(X) :- T(X,X)"; "Reaches(X) :- T(X,Y)" ];
    (* stratified negation over a recursive stratum *)
    tc_rules @ [ "NotEdge(X,Y) :- T(X,Y), not E(X,Y)" ];
    (* empty stratum: defined over a relation absent from the db *)
    [ "Ghost(X,Y) :- Missing(X,Y)"; "Both(X,Y) :- E(X,Y), Ghost(X,Y)" ]
    @ tc_rules;
  ]

let random_edges seed =
  let st = Random.State.make [| seed |] in
  let n = 3 + Random.State.int st 5 in
  List.init
    (3 + Random.State.int st 12)
    (fun _ -> (Random.State.int st n, Random.State.int st n))

let agree strat db =
  let fast = Cq.Seminaive.run db strat in
  let slow = Dc_oracle.Naive.run db strat in
  List.for_all
    (fun p ->
      match (R.Database.relation fast p, R.Database.relation slow p) with
      | Some a, Some b -> R.Relation.equal a b
      | None, None -> true
      | _ -> false)
    strat.Cq.Stratify.idb

let prop_seminaive_matches_naive =
  qtest "semi-naive = naive on random graphs"
    QCheck.(int_bound 500)
    (fun seed ->
      let db = edge_db (random_edges seed) in
      List.for_all (fun rules -> agree (strat_exn rules) db) program_templates)

(* ------------------------------------------------------------------ *)
(* Continued derivation: every version's IDB, however the per-version
   engine came to derive it, equals a from-scratch [Seminaive.run] and
   the naive fixpoint on that version's database. *)

let binary_schema name =
  R.Schema.make name
    [ R.Schema.attr ~ty:R.Value.TInt "A"; R.Schema.attr ~ty:R.Value.TInt "B" ]

let ef_db st =
  let edges () =
    List.init (Random.State.int st 8) (fun _ ->
        int_tuple [ Random.State.int st 5; Random.State.int st 5 ])
  in
  List.fold_left
    (fun db name ->
      R.Database.insert_list
        (R.Database.create_relation db (binary_schema name))
        name (edges ()))
    R.Database.empty [ "E"; "F" ]

(* Three to five safe rules over EDB relations E and F and IDB
   predicates P, Q and S, with recursion and negation; drawn again until
   they stratify. *)
let rec random_program st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let vars = [| "X"; "Y"; "Z" |] in
  let preds = [| "E"; "F"; "P"; "Q"; "S" |] in
  let random_rule () =
    let pos =
      List.init
        (1 + Random.State.int st 2)
        (fun _ -> (pick preds, pick vars, pick vars))
    in
    let bound =
      Array.of_list
        (List.sort_uniq compare
           (List.concat_map (fun (_, a, b) -> [ a; b ]) pos))
    in
    let atom (p, a, b) = Printf.sprintf "%s(%s,%s)" p a b in
    let neg =
      if Random.State.int st 3 = 0 then
        [ "not " ^ atom (pick preds, pick bound, pick bound) ]
      else []
    in
    Printf.sprintf "%s(%s,%s) :- %s"
      (pick [| "P"; "Q"; "S" |])
      (pick bound) (pick bound)
      (String.concat ", " (List.map atom pos @ neg))
  in
  let rules = List.init (3 + Random.State.int st 3) (fun _ -> random_rule ()) in
  match Cq.Program.make (List.map rule rules) with
  | Ok p -> p
  | Error _ -> random_program st

(* A commit: one to three inserts or deletes on E or F; a delete picks
   an existing tuple or, one time in four, one that may be absent. *)
let random_delta st db =
  List.fold_left
    (fun d _ ->
      let rel = if Random.State.bool st then "E" else "F" in
      let fresh () =
        int_tuple [ Random.State.int st 5; Random.State.int st 5 ]
      in
      match Random.State.int st 4 with
      | 0 | 1 -> R.Delta.insert d rel (fresh ())
      | 2 -> (
          match R.Relation.tuples (R.Database.relation_exn db rel) with
          | [] -> R.Delta.insert d rel (fresh ())
          | ts ->
              R.Delta.delete d rel
                (List.nth ts (Random.State.int st (List.length ts))))
      | _ -> R.Delta.delete d rel (fresh ()))
    R.Delta.empty
    (List.init (1 + Random.State.int st 3) Fun.id)

let idb_equal (p : Cq.Program.t) a b =
  List.for_all
    (fun name ->
      match (R.Database.relation a name, R.Database.relation b name) with
      | Some x, Some y -> R.Relation.equal x y
      | None, None -> true
      | _ -> false)
    (Cq.Program.idb_preds p)

let prop_continued_matches_scratch =
  qtest "continued derivations = from scratch = naive, every version"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let program = random_program st in
      let strat = program.Cq.Program.strat in
      let ve =
        C.Versioned_engine.of_engine
          ~capacity:(1 + Random.State.int st 4)
        @@ C.Engine.of_program
          (ef_db st) program
      in
      let store () = C.Versioned_engine.store ve in
      let check v =
        let db = R.Version_store.checkout_exn (store ()) v in
        let got =
          C.Engine.derived_database
            (Result.get_ok (C.Versioned_engine.engine_at ve v))
        in
        if not (idb_equal program got (Cq.Seminaive.run db strat)) then
          QCheck.Test.fail_reportf "v%d differs from Seminaive.run:@.%s" v
            (Cq.Program.to_string program);
        if not (idb_equal program got (Dc_oracle.Naive.run db strat)) then
          QCheck.Test.fail_reportf "v%d differs from Naive.run:@.%s" v
            (Cq.Program.to_string program)
      in
      for _ = 1 to 12 do
        let head = R.Version_store.head (store ()) in
        (* commits, and cites forward, backward and skipping versions *)
        if Random.State.int st 5 < 2 then
          ignore
            (Result.get_ok
               (C.Versioned_engine.commit_delta ve
                  (random_delta st (R.Version_store.head_db (store ())))))
        else check (Random.State.int st (head + 1))
      done;
      List.iter check (R.Version_store.versions (store ()));
      true)

(* The continuation entry point on its own: from the IDB of one
   database to the IDB of the next, given the net change. *)
let prop_continue_matches_run =
  qtest "Seminaive.continue = Seminaive.run"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let strat = (random_program st).Cq.Program.strat in
      let db0 = ef_db st in
      let db1 = R.Delta.apply db0 (random_delta st db0) in
      let prior = Cq.Seminaive.run db0 strat in
      let changes = R.Delta.between db0 db1 in
      let got = Cq.Seminaive.continue ~prior ~changes db1 strat in
      let want = Cq.Seminaive.run db1 strat in
      List.for_all
        (fun p ->
          R.Relation.equal
            (R.Database.relation_exn got p)
            (R.Database.relation_exn want p))
        strat.Cq.Stratify.idb)

(* The net change [continue_delta] reports for every IDB predicate is
   the difference of the two derivations. *)
let prop_continue_delta_is_net =
  qtest "Seminaive.continue_delta = difference of runs"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let strat = (random_program st).Cq.Program.strat in
      let db0 = ef_db st in
      let db1 = R.Delta.apply db0 (random_delta st db0) in
      let prior = Cq.Seminaive.run db0 strat in
      let _, delta =
        Cq.Seminaive.continue_delta ~prior
          ~changes:(R.Delta.between db0 db1) db1 strat
      in
      let want = Cq.Seminaive.run db1 strat in
      List.for_all
        (fun p ->
          let ins, del =
            R.Relation.diff
              (R.Database.relation_exn prior p)
              (R.Database.relation_exn want p)
          in
          let sorted = List.sort R.Tuple.compare in
          sorted (R.Delta.inserted delta p) = ins
          && sorted (R.Delta.deleted delta p) = del)
        strat.Cq.Stratify.idb)

(* IDB columns are named like query results, distinct even when a
   renamed repeat meets a later head variable. *)
let test_idb_columns_distinct () =
  let db =
    Cq.Seminaive.run
      (edge_db [ (1, 2); (3, 3) ])
      (strat_exn [ "P(X,X,X_1) :- E(X,X_1)" ])
  in
  Alcotest.(check (list string)) "distinct columns" [ "X"; "X_1"; "X_1_2" ]
    (List.map
       (fun (a : R.Schema.attribute) -> a.name)
       (R.Schema.attributes
          (R.Relation.schema (R.Database.relation_exn db "P"))));
  Alcotest.(check int) "both rows" 2 (card db "P")

let test_delta_name_of_lower_relation_reserved () =
  let db =
    R.Database.create_relation (edge_db [ (1, 2) ]) (binary_schema "E__delta")
  in
  match Cq.Seminaive.run db (strat_exn [ "P(X,Y) :- E(X,Y)" ]) with
  | _ -> Alcotest.fail "a relation named like E's delta extent was accepted"
  | exception Invalid_argument e ->
      Alcotest.(check bool) "names the relation" true
        (contains ~affix:"E__delta" e)

(* ------------------------------------------------------------------ *)
(* RDFS closure: the Datalog reasoner against a direct port of the old
   hand-written one *)

module Reference = struct
  module Smap = Map.Make (String)
  module Sset = Set.Make (String)

  type t = {
    subclass : Sset.t Smap.t;
    subprop : Sset.t Smap.t;
    domain : Sset.t Smap.t;
    range : Sset.t Smap.t;
  }

  let of_edges ~subclass ~subprop ~domain ~range =
    let build =
      List.fold_left
        (fun m (a, b) ->
          Smap.update a
            (function
              | None -> Some (Sset.singleton b) | Some s -> Some (Sset.add b s))
            m)
        Smap.empty
    in
    {
      subclass = build subclass;
      subprop = build subprop;
      domain = build domain;
      range = build range;
    }

  let closure edges start =
    let rec go seen frontier =
      match frontier with
      | [] -> seen
      | x :: rest ->
          let nexts =
            match Smap.find_opt x edges with
            | None -> Sset.empty
            | Some s -> Sset.diff s seen
          in
          go (Sset.union seen nexts) (Sset.elements nexts @ rest)
    in
    Sset.elements (go (Sset.singleton start) [ start ])

  let superclasses o c = closure o.subclass c
  let superproperties o p = closure o.subprop p

  let direct_classes o g subj =
    let module T = Dc_rdf.Triple in
    let module G = Dc_rdf.Graph in
    let asserted = G.types_of g subj in
    let via_domain =
      List.concat_map
        (fun (t : T.t) ->
          if String.equal t.pred T.rdf_type then []
          else
            List.concat_map
              (fun p ->
                match Smap.find_opt p o.domain with
                | None -> []
                | Some cs -> Sset.elements cs)
              (superproperties o t.pred))
        (G.with_subj g subj)
    in
    let via_range =
      List.concat_map
        (fun (t : T.t) ->
          match t.obj with
          | T.Iri s when String.equal s subj ->
              List.concat_map
                (fun p ->
                  match Smap.find_opt p o.range with
                  | None -> []
                  | Some cs -> Sset.elements cs)
                (superproperties o t.pred)
          | _ -> [])
        (G.triples g)
    in
    List.sort_uniq String.compare (asserted @ via_domain @ via_range)

  let subject_classes o g subj =
    List.concat_map (superclasses o) (direct_classes o g subj)
    |> List.sort_uniq String.compare

  let infer_types o g =
    let subjects =
      Dc_rdf.Graph.fold
        (fun (t : Dc_rdf.Triple.t) acc -> Sset.add t.subj acc)
        g Sset.empty
    in
    List.map (fun s -> (s, subject_classes o g s)) (Sset.elements subjects)
end

let random_rdf seed =
  let module T = Dc_rdf.Triple in
  let st = Random.State.make [| seed |] in
  let cls i = Printf.sprintf "C%d" i and prop i = Printf.sprintf "p%d" i in
  let n_cls = 4 + Random.State.int st 4 in
  let pick_cls () = cls (Random.State.int st n_cls) in
  let pick_prop () = prop (Random.State.int st 4) in
  let edges k f = List.init k (fun _ -> f ()) in
  let subclass = edges 5 (fun () -> (pick_cls (), pick_cls ())) in
  let subprop = edges 2 (fun () -> (pick_prop (), pick_prop ())) in
  let domain = edges 2 (fun () -> (pick_prop (), pick_cls ())) in
  let range = edges 2 (fun () -> (pick_prop (), pick_cls ())) in
  let subj i = Printf.sprintf "s%d" i in
  let triples =
    List.init
      (4 + Random.State.int st 6)
      (fun i ->
        match Random.State.int st 3 with
        | 0 -> T.make (subj i) T.rdf_type (T.iri (pick_cls ()))
        | 1 -> T.make (subj i) (pick_prop ()) (T.iri (subj (i / 2)))
        | _ -> T.make (subj i) (pick_prop ()) (T.lit_str "v"))
  in
  let ontology =
    let o =
      List.fold_left
        (fun o (sub, super) -> Dc_rdf.Ontology.add_subclass o ~sub ~super)
        Dc_rdf.Ontology.empty
        (* drop self-loops so [Reference.closure] mirrors an acyclic
           hierarchy the way real RDFS schemas are written *)
        (List.filter (fun (a, b) -> a <> b) subclass)
    in
    let o =
      List.fold_left
        (fun o (sub, super) -> Dc_rdf.Ontology.add_subproperty o ~sub ~super)
        o
        (List.filter (fun (a, b) -> a <> b) subprop)
    in
    let o =
      List.fold_left
        (fun o (prop, c) -> Dc_rdf.Ontology.add_domain o ~prop ~cls:c)
        o domain
    in
    List.fold_left
      (fun o (prop, c) -> Dc_rdf.Ontology.add_range o ~prop ~cls:c)
      o range
  in
  let reference =
    Reference.of_edges
      ~subclass:(List.filter (fun (a, b) -> a <> b) subclass)
      ~subprop:(List.filter (fun (a, b) -> a <> b) subprop)
      ~domain ~range
  in
  (ontology, reference, Dc_rdf.Graph.of_list triples)

let prop_rdfs_matches_reference =
  qtest "Datalog RDFS closure = reference reasoner"
    QCheck.(int_bound 500)
    (fun seed ->
      let o, reference, g = random_rdf seed in
      Dc_rdf.Ontology.infer_types o g = Reference.infer_types reference g)

let test_rdfs_byte_identical_sample () =
  let o =
    Dc_rdf.Ontology.empty
    |> (fun o -> Dc_rdf.Ontology.add_subclass o ~sub:"CellLine" ~super:"Biomaterial")
    |> (fun o -> Dc_rdf.Ontology.add_subclass o ~sub:"Biomaterial" ~super:"Resource")
    |> (fun o -> Dc_rdf.Ontology.add_subproperty o ~sub:"hasInsert" ~super:"hasPart")
    |> fun o -> Dc_rdf.Ontology.add_domain o ~prop:"hasPart" ~cls:"Plasmid"
  in
  let module T = Dc_rdf.Triple in
  let g =
    Dc_rdf.Graph.of_list
      [
        T.make "hela" T.rdf_type (T.iri "CellLine");
        T.make "plasmid42" "hasInsert" (T.lit_str "GFP");
      ]
  in
  Alcotest.(check (list (pair string (list string))))
    "inferred types"
    [
      ("hela", [ "Biomaterial"; "CellLine"; "Resource" ]);
      ("plasmid42", [ "Plasmid" ]);
    ]
    (Dc_rdf.Ontology.infer_types o g);
  (* subproperty closure feeds domain inference *)
  Alcotest.(check (list string))
    "superproperties" [ "hasInsert"; "hasPart" ]
    (Dc_rdf.Ontology.superproperties o "hasInsert")

(* ------------------------------------------------------------------ *)
(* Program API: exports through the engine *)

let upstream_program =
  Cq.Program.parse_exn
    {|
  Up(S,D) :- Link(S,D);
  Up(S,D) :- Link(S,M), Up(M,D);
  export lambda D. VUp(D,S) :- Up(S,D);
  cite lambda D. CVUp(D,S) :- Up(S,D)
|}

let link_db edges =
  let schema =
    R.Schema.make "Link"
      [ R.Schema.attr ~ty:R.Value.TInt "S"; R.Schema.attr ~ty:R.Value.TInt "D" ]
  in
  R.Database.insert_list
    (R.Database.create_relation R.Database.empty schema)
    "Link"
    (List.map (fun (a, b) -> int_tuple [ a; b ]) edges)

let test_engine_of_program () =
  let eng =
    C.Engine.of_program ~selection:`All
      (link_db [ (3, 2); (2, 1) ])
      upstream_program
  in
  Alcotest.(check (list string)) "derived predicates" [ "Up" ]
    (Dc_cq.Program.idb_preds (Option.get (C.Engine.program eng)));
  Alcotest.(check (list string)) "recursive predicates" [ "Up" ]
    (C.Engine.recursive_predicates eng);
  let result = C.Engine.cite eng (parse "Q(S) :- Up(S,1)") in
  Alcotest.(check int) "both upstream nodes" 2 (List.length result.tuples);
  Alcotest.(check bool) "cited through the export" true
    (result.result_citations <> [])

let test_engine_refresh_rederives () =
  let eng = C.Engine.of_program (link_db [ (2, 1) ]) upstream_program in
  Alcotest.(check int) "initial closure" 1
    (card (C.Engine.derived_database eng) "Up");
  let eng2 = C.Engine.refresh eng (link_db [ (2, 1); (3, 2) ]) in
  Alcotest.(check int) "closure after refresh" 3
    (card (C.Engine.derived_database eng2) "Up")

let test_register_guard () =
  let ve =
    C.Versioned_engine.of_engine
    @@ C.Engine.of_program (link_db [ (2, 1) ]) upstream_program
  in
  match C.Versioned_engine.register ve (parse "Q(S) :- Link(S,D)") with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("EDB registration refused: " ^ e)

(* A base-only registration on a program engine must survive commits
   that touch the inputs of the program's exports: maintenance skips the
   views over derived predicates (no registered rewriting reads them)
   instead of re-deriving them over a base that lacks their IDB. *)
let subfamily_program =
  Cq.Program.parse_exn
    {|
  Sub(P,C) :- Subfamily(P,C);
  Sub(P,C) :- Subfamily(P,M), Sub(M,C);
  export lambda P. VSub(P,C,CName) :- Sub(P,C), Family(C,CName,Desc);
  cite lambda P. CVSub(P,PName) :- Committee(P,PName)
|}

let subfamily_db () =
  let schema =
    R.Schema.make "Subfamily"
      [
        R.Schema.attr ~ty:R.Value.TInt "Parent";
        R.Schema.attr ~ty:R.Value.TInt "Child";
      ]
  in
  R.Database.insert_list
    (R.Database.create_relation (paper_db ()) schema)
    "Subfamily"
    [ int_tuple [ 11; 12 ]; int_tuple [ 21; 22 ] ]

let render_result (r : C.Engine.result) =
  List.map
    (fun (tc : C.Engine.tuple_citation) ->
      Format.asprintf "%a | %s | %a" R.Tuple.pp tc.tuple
        (C.Cite_expr.to_string tc.expr)
        C.Citation.Set.pp tc.citations)
    r.tuples
  @ [
      C.Cite_expr.to_string r.result_expr;
      Format.asprintf "%a" C.Citation.Set.pp r.result_citations;
    ]

let test_register_on_program_survives_commits () =
  let views = Dc_gtopdb.Paper_views.all in
  let ve =
    C.Versioned_engine.of_engine @@ C.Engine.of_program ~views (subfamily_db ())
      subfamily_program
  in
  let q = Dc_gtopdb.Paper_views.query_q in
  (match C.Versioned_engine.register ve q with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("base-only registration refused: " ^ e));
  let commit delta =
    match C.Versioned_engine.commit_delta ve delta with
    | Ok v -> v
    | Error e -> Alcotest.fail ("commit failed: " ^ e)
  in
  let delta changes =
    List.fold_left (fun d (op, rel, t) -> op d rel t) R.Delta.empty changes
  in
  let _ =
    commit
      (delta
         [
           (R.Delta.insert, "Family", tuple [ int 99; str "Orexin"; str "O1" ]);
           (R.Delta.insert, "FamilyIntro", tuple [ int 99; str "Orexin intro" ]);
           (R.Delta.insert, "Committee", tuple [ int 99; str "Kim Neve" ]);
           (R.Delta.insert, "Subfamily", int_tuple [ 11; 99 ]);
         ])
  in
  let head =
    commit
      (delta
         [
           (R.Delta.delete, "FamilyIntro", tuple [ int 12; str "2nd" ]);
           (R.Delta.delete, "Committee", tuple [ int 11; str "Debbie Hay" ]);
         ])
  in
  match C.Versioned_engine.cite_at ve head q with
  | Error e -> Alcotest.fail e
  | Ok cited ->
      Alcotest.(check bool) "served from the registration" true
        cited.from_registration;
      let db =
        Option.get
          (R.Version_store.checkout (C.Versioned_engine.store ve) head)
      in
      let fresh =
        C.Engine.cite (C.Engine.of_program ~views db subfamily_program) q
      in
      Alcotest.(check (list string))
        "maintained = fresh cite" (render_result fresh)
        (render_result cited.result);
      (* the export over the derived closure still answers at head *)
      let closure = parse "C(Child) :- Sub(11,Child)" in
      Alcotest.(check int) "closure re-derived" 2
        (List.length
           (Result.get_ok (C.Versioned_engine.cite_at ve head closure))
             .result.tuples)

(* Registration = fresh cite over a program with a recursive predicate,
   under random commits of inserts and deletes.  The registrations read
   the recursive predicate (through an export and directly), cite
   through a view whose citation query reads derived predicates, or
   read base relations only; after every commit each one, cited at
   head, must be served from its registration and equal a fresh engine
   over the head database: tuples, expressions, per-tuple and result
   citations. *)
let evolving_program =
  Cq.Program.parse_exn
    {|
  Sub(P,C) :- Subfamily(P,C);
  Sub(P,C) :- Subfamily(P,M), Sub(M,C);
  Chair(F,N) :- Committee(F,N), Family(F,FN,D);
  export lambda P. VSub(P,C,CName) :- Sub(P,C), Family(C,CName,Desc);
  cite lambda P. CVSub(P,PName) :- Committee(P,PName);
  export lambda F. VNote(F,Text) :- FamilyIntro(F,Text), Subfamily(F,C);
  cite lambda F. CVNote(F,N,C) :- Chair(F,N), Sub(F,C)
|}

let registered_queries =
  List.map parse
    [
      "Q(C,CName) :- Sub(11,C), Family(C,CName,Desc)";
      "Q(P,C) :- Sub(P,C)";
      "Q(F,T) :- FamilyIntro(F,T), Subfamily(F,C)";
      "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
      "Q(F,N,D) :- Family(F,N,D)";
    ]

let random_commit st db =
  let fid () = [| 11; 12; 21; 22; 30 |].(Random.State.int st 5) in
  let word () = [| "a"; "b"; "c" |].(Random.State.int st 3) in
  let fresh = function
    | "Family" -> tuple [ int (fid ()); str (word ()); str (word ()) ]
    | "Subfamily" -> int_tuple [ fid (); fid () ]
    | _ -> tuple [ int (fid ()); str (word ()) ]
  in
  List.fold_left
    (fun d _ ->
      let rels = [| "Family"; "FamilyIntro"; "Committee"; "Subfamily" |] in
      let rel = rels.(Random.State.int st 4) in
      match R.Relation.tuples (R.Database.relation_exn db rel) with
      | ts when ts <> [] && Random.State.bool st ->
          let i = Random.State.int st (List.length ts) in
          R.Delta.delete d rel (List.nth ts i)
      | _ -> R.Delta.insert d rel (fresh rel))
    R.Delta.empty
    (List.init (1 + Random.State.int st 3) Fun.id)

let prop_registration_matches_fresh_program =
  qtest "registration over derived predicates = fresh cite"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let policy = C.Policy.make ~alt_r:C.Policy.Keep_all () in
      let views = Dc_gtopdb.Paper_views.all in
      let ve =
        C.Versioned_engine.of_engine
        @@ C.Engine.of_program ~selection:`All ~policy ~views (subfamily_db ())
             evolving_program
      in
      List.iter
        (fun q ->
          match C.Versioned_engine.register ve q with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "register refused: %s" e)
        registered_queries;
      for _ = 1 to 1 + Random.State.int st 5 do
        let head_db () =
          R.Version_store.head_db (C.Versioned_engine.store ve)
        in
        let d = random_commit st (head_db ()) in
        let v = Result.get_ok (C.Versioned_engine.commit_delta ve d) in
        let fresh =
          C.Engine.of_program ~selection:`All ~policy ~views (head_db ())
            evolving_program
        in
        List.iter
          (fun q ->
            let cited = Result.get_ok (C.Versioned_engine.cite_at ve v q) in
            if not cited.from_registration then
              QCheck.Test.fail_reportf "v%d %s: not served from registration" v
                (Cq.Query.to_string q);
            let want = render_result (C.Engine.cite fresh q)
            and got = render_result cited.result in
            if want <> got then
              QCheck.Test.fail_reportf
                "v%d %s after %a:@.registered %s@.fresh      %s" v
                (Cq.Query.to_string q) R.Delta.pp d
                (String.concat "\n  " got)
                (String.concat "\n  " want))
          registered_queries
      done;
      true)

let suite =
  [
    Alcotest.test_case "rule parse" `Quick test_rule_parse;
    Alcotest.test_case "rule safety" `Quick test_rule_safety;
    Alcotest.test_case "rule equality elimination" `Quick
      test_rule_equality_elim;
    Alcotest.test_case "stratification order" `Quick test_stratify_order;
    Alcotest.test_case "mutual recursion" `Quick test_stratify_mutual;
    Alcotest.test_case "negation through recursion rejected" `Quick
      test_stratify_rejects_negation_through_recursion;
    Alcotest.test_case "stratified negation accepted" `Quick
      test_stratified_negation_ok;
    Alcotest.test_case "semi-naive chain closure" `Quick test_seminaive_chain;
    Alcotest.test_case "semi-naive cycle closure" `Quick test_seminaive_cycle;
    Alcotest.test_case "stratified negation evaluation" `Quick
      test_seminaive_negation;
    Alcotest.test_case "missing EDB treated as empty" `Quick
      test_seminaive_missing_edb_is_empty;
    prop_seminaive_matches_naive;
    prop_continued_matches_scratch;
    prop_continue_matches_run;
    prop_continue_delta_is_net;
    Alcotest.test_case "IDB column names are distinct" `Quick
      test_idb_columns_distinct;
    Alcotest.test_case "delta name of a lower relation reserved" `Quick
      test_delta_name_of_lower_relation_reserved;
    prop_rdfs_matches_reference;
    Alcotest.test_case "RDFS closure worked sample" `Quick
      test_rdfs_byte_identical_sample;
    Alcotest.test_case "engine from program" `Quick test_engine_of_program;
    Alcotest.test_case "refresh re-derives" `Quick
      test_engine_refresh_rederives;
    Alcotest.test_case "REGISTER guard over recursive predicates" `Quick
      test_register_guard;
    Alcotest.test_case "REGISTER on a program engine survives commits" `Quick
      test_register_on_program_survives_commits;
    prop_registration_matches_fresh_program;
  ]
