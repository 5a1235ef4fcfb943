open Testutil
module Cq = Dc_cq
module C = Dc_cq.Containment
module M = Dc_oracle.Minimize

let q = parse

(* Minimality by definition: dropping any one body atom, where the query
   stays safe, loses equivalence. *)
let is_minimal qq =
  List.for_all
    (fun atom ->
      let body = List.filter (fun a -> a != atom) (Cq.Query.body qq) in
      body = []
      ||
      match
        Cq.Query.make ~params:(Cq.Query.params qq) ~name:(Cq.Query.name qq)
          ~head:(Cq.Query.head qq) ~body ()
      with
      | Ok q' -> not (C.equivalent qq q')
      | Error _ -> true)
    (Cq.Query.body qq)

let test_identity () =
  let q1 = q "Q(X) :- R(X,Y)" in
  Alcotest.(check bool) "self containment" true (C.contained q1 q1);
  Alcotest.(check bool) "self equivalence" true (C.equivalent q1 q1)

let test_renaming () =
  let q1 = q "Q(X) :- R(X,Y), S(Y,Z)" in
  let q2 = q "Q(A) :- R(A,B), S(B,C)" in
  Alcotest.(check bool) "equivalent up to renaming" true (C.equivalent q1 q2)

let test_classic_strictness () =
  (* R(x,x) ⊆ R(x,y) but not conversely *)
  let tight = q "Q(X) :- R(X,X)" in
  let loose = q "Q(X) :- R(X,Y)" in
  Alcotest.(check bool) "tight in loose" true (C.contained tight loose);
  Alcotest.(check bool) "loose not in tight" false (C.contained loose tight)

let test_path_vs_cycle () =
  (* A 2-path is contained in... the cycle query maps into it only if
     the path folds; classic example: Q1 path of length 2, Q2 single
     self-loop-ish pattern. *)
  let path = q "Q(X) :- R(X,Y), R(Y,Z)" in
  let one = q "Q(X) :- R(X,Y)" in
  Alcotest.(check bool) "path in single step" true (C.contained path one);
  Alcotest.(check bool) "single step not in path" false (C.contained one path)

let test_constants () =
  let with_const = q "Q(X) :- R(X,3)" in
  let general = q "Q(X) :- R(X,Y)" in
  Alcotest.(check bool) "constant query contained in general" true
    (C.contained with_const general);
  Alcotest.(check bool) "general not contained in constant" false
    (C.contained general with_const);
  let other_const = q "Q(X) :- R(X,4)" in
  Alcotest.(check bool) "different constants incomparable" false
    (C.contained with_const other_const)

let test_head_matters () =
  let q1 = q "Q(X) :- R(X,Y)" in
  let q2 = q "Q(Y) :- R(X,Y)" in
  Alcotest.(check bool) "different projections" false (C.contained q1 q2)

let test_repeated_head_var () =
  let diag = q "Q(X,X) :- R(X,X)" in
  let full = q "Q(X,Y) :- R(X,Y)" in
  Alcotest.(check bool) "diag in full" true (C.contained diag full);
  Alcotest.(check bool) "full not in diag" false (C.contained full diag)

let test_witness () =
  let q1 = q "Q(X) :- R(X,X)" in
  let q2 = q "Q(A) :- R(A,B)" in
  match C.witness q1 q2 with
  | None -> Alcotest.fail "expected witness"
  | Some s ->
      (* hom q2 -> q1 must map A to X, B to X *)
      Alcotest.(check bool) "A -> X" true
        (Cq.Subst.find s "A" = Some (Cq.Term.Var "X"))

let test_canonical_database () =
  let q1 = q "Q(X) :- R(X,Y), S(Y,Z)" in
  let db, head = C.canonical_database q1 in
  Alcotest.(check int) "two frozen tuples" 2
    (Dc_relational.Database.total_tuples db);
  Alcotest.(check int) "head arity" 1 (Dc_relational.Tuple.arity head);
  (* Evaluating q over its own canonical database yields the frozen head
     (Chandra-Merlin). *)
  let results = eval_tuples db q1 in
  Alcotest.(check bool) "frozen head in answer" true
    (List.exists (Dc_relational.Tuple.equal head) results)

let test_minimize_redundant_atom () =
  (* The second atom is subsumed by the first. *)
  let redundant = q "Q(X) :- R(X,Y), R(X,Z)" in
  let minimized = M.minimize redundant in
  Alcotest.(check int) "one atom left" 1 (List.length (Cq.Query.body minimized));
  Alcotest.(check bool) "still equivalent" true (C.equivalent redundant minimized)

let test_minimize_preserves_nonredundant () =
  let tight = q "Q(X) :- R(X,Y), S(Y,Z)" in
  Alcotest.(check bool) "already minimal" true (is_minimal tight);
  Alcotest.(check int) "unchanged" 2
    (List.length (Cq.Query.body (M.minimize tight)))

let test_minimize_triangle () =
  (* Classic: a triangle with an extra folded edge. *)
  let qq = q "Q(X) :- R(X,Y), R(Y,X), R(X,X)" in
  let m = M.minimize qq in
  Alcotest.(check int) "core is the self-loop" 1 (List.length (Cq.Query.body m));
  Alcotest.(check bool) "equivalent" true (C.equivalent qq m)

let test_safety_preserved () =
  (* Removing the only atom holding the head variable is impossible. *)
  let qq = q "Q(Y) :- R(X,X), S(X,Y)" in
  let m = M.minimize qq in
  Alcotest.(check bool) "Y still in body" true
    (List.exists (fun a -> List.mem "Y" (Cq.Atom.var_list a)) (Cq.Query.body m))

let prop_freshen_equivalent =
  qtest "freshening preserves equivalence" QCheck.(int_bound 500) (fun seed ->
      List.for_all
        (fun qq -> C.equivalent qq (Cq.Query.freshen qq 7))
        (Dc_repro.Workload.generate ~seed ~count:4))

let prop_minimize_equivalent =
  qtest "minimize preserves equivalence" QCheck.(int_bound 500) (fun seed ->
      List.for_all
        (fun qq ->
          let m = M.minimize qq in
          C.equivalent qq m && is_minimal m)
        (Dc_repro.Workload.generate ~seed ~count:4))

let prop_containment_reflexive_transitive =
  qtest "containment reflexive" QCheck.(int_bound 500) (fun seed ->
      List.for_all
        (fun qq -> C.contained qq qq)
        (Dc_repro.Workload.generate ~seed ~count:4))

let suite =
  [
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "renaming" `Quick test_renaming;
    Alcotest.test_case "strict containment" `Quick test_classic_strictness;
    Alcotest.test_case "path vs single" `Quick test_path_vs_cycle;
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "head matters" `Quick test_head_matters;
    Alcotest.test_case "repeated head var" `Quick test_repeated_head_var;
    Alcotest.test_case "witness" `Quick test_witness;
    Alcotest.test_case "canonical database" `Quick test_canonical_database;
    Alcotest.test_case "minimize redundant" `Quick test_minimize_redundant_atom;
    Alcotest.test_case "minimize nonredundant" `Quick test_minimize_preserves_nonredundant;
    Alcotest.test_case "minimize triangle" `Quick test_minimize_triangle;
    Alcotest.test_case "minimize keeps safety" `Quick test_safety_preserved;
    prop_freshen_equivalent;
    prop_minimize_equivalent;
    prop_containment_reflexive_transitive;
  ]

let prop_minimize_idempotent =
  qtest "minimize is idempotent" QCheck.(int_bound 500) (fun seed ->
      List.for_all
        (fun qq ->
          let m = M.minimize qq in
          Cq.Query.equal_syntactic m (M.minimize m))
        (Dc_repro.Workload.generate ~seed ~count:4))

let prop_containment_antisymmetric_up_to_equiv =
  qtest "mutual containment = equivalence" QCheck.(int_bound 500)
    (fun seed ->
      match Dc_repro.Workload.generate ~seed ~count:2 with
      | [ q1; q2 ] ->
          C.equivalent q1 q2 = (C.contained q1 q2 && C.contained q2 q1)
      | _ -> true)

let suite =
  suite
  @ [ prop_minimize_idempotent; prop_containment_antisymmetric_up_to_equiv ]
