open Testutil
module Cq = Dc_cq
module Sub = Dc_cq.Subst
module U = Dc_cq.Unify
module T = Dc_cq.Term

let ti i = T.Const (R.Value.Int i)

(* The most general unifier of the pairs, as an idempotent substitution
   over the classes' representatives (constant first, then the first
   variable seen): what unification reduces to without function
   symbols. *)
let mgu pairs =
  let c =
    List.fold_left
      (fun acc (a, b) -> Option.bind acc (fun c -> U.Classes.union c a b))
      (Some U.Classes.empty) pairs
  in
  Option.map (fun c -> U.Classes.to_subst c (fun _ -> false)) c

let unify_atoms a b =
  Option.map
    (fun c -> U.Classes.to_subst c (fun _ -> false))
    (U.Classes.union_atoms U.Classes.empty a b)

let test_apply () =
  let s = Sub.of_list [ ("X", ti 1); ("Y", T.Var "Z") ] in
  Alcotest.(check bool) "const through" true
    (T.equal (Sub.apply_term s (ti 9)) (ti 9));
  Alcotest.(check bool) "X to 1" true
    (T.equal (Sub.apply_term s (T.Var "X")) (ti 1));
  Alcotest.(check bool) "unbound untouched" true
    (T.equal (Sub.apply_term s (T.Var "W")) (T.Var "W"))

let test_extend () =
  let s = Sub.singleton "X" (ti 1) in
  Alcotest.(check bool) "same binding ok" true
    (Sub.extend s "X" (ti 1) <> None);
  Alcotest.(check bool) "conflict fails" true
    (Sub.extend s "X" (ti 2) = None);
  Alcotest.(check bool) "fresh ok" true (Sub.extend s "Y" (T.Var "Z") <> None)

let test_compose () =
  let s1 = Sub.of_list [ ("X", T.Var "Y") ] in
  let s2 = Sub.of_list [ ("Y", ti 5) ] in
  let c = Sub.compose s1 s2 in
  Alcotest.(check bool) "X goes all the way" true
    (T.equal (Sub.apply_term c (T.Var "X")) (ti 5));
  Alcotest.(check bool) "Y too" true
    (T.equal (Sub.apply_term c (T.Var "Y")) (ti 5))

let test_mgu_basic () =
  (match mgu [ (T.Var "X", ti 3) ] with
  | Some s -> Alcotest.(check bool) "X=3" true (T.equal (Sub.apply_term s (T.Var "X")) (ti 3))
  | None -> Alcotest.fail "expected mgu");
  Alcotest.(check bool) "const clash" true (mgu [ (ti 1, ti 2) ] = None);
  Alcotest.(check bool) "const same" true (mgu [ (ti 1, ti 1) ] <> None)

let test_mgu_transitive () =
  (* X=Y, Y=3 must give X=3 *)
  match mgu [ (T.Var "X", T.Var "Y"); (T.Var "Y", ti 3) ] with
  | None -> Alcotest.fail "expected mgu"
  | Some s ->
      Alcotest.(check bool) "X=3" true
        (T.equal (Sub.apply_term s (T.Var "X")) (ti 3));
      Alcotest.(check bool) "Y=3" true
        (T.equal (Sub.apply_term s (T.Var "Y")) (ti 3))

let test_mgu_conflict_through_chain () =
  (* X=1, X=Y, Y=2 is unsatisfiable *)
  Alcotest.(check bool) "chain conflict" true
    (mgu [ (T.Var "X", ti 1); (T.Var "X", T.Var "Y"); (T.Var "Y", ti 2) ]
    = None)

let test_unify_atoms () =
  let a = Cq.Atom.make "R" [ T.Var "X"; T.Var "X" ] in
  let b = Cq.Atom.make "R" [ ti 1; T.Var "Y" ] in
  (match unify_atoms a b with
  | None -> Alcotest.fail "expected unifier"
  | Some s ->
      Alcotest.(check bool) "Y forced to 1" true
        (T.equal (Sub.apply_term s (T.Var "Y")) (ti 1)));
  let c = Cq.Atom.make "S" [ T.Var "X" ] in
  Alcotest.(check bool) "pred mismatch" true (unify_atoms a c = None);
  let d = Cq.Atom.make "R" [ ti 1; ti 2 ] in
  Alcotest.(check bool) "repeated var vs distinct consts" true
    (unify_atoms a d = None)

let test_classes_members () =
  let open U.Classes in
  match union empty (T.Var "X") (T.Var "Y") with
  | None -> Alcotest.fail "union failed"
  | Some c -> (
      match union c (T.Var "Y") (ti 5) with
      | None -> Alcotest.fail "union failed"
      | Some c ->
          Alcotest.(check bool) "const is representative" true
            (T.equal (find c (T.Var "X")) (ti 5));
          Alcotest.(check int) "class has 3 members" 3
            (List.length (members c (T.Var "X"))))

let arb_term =
  QCheck.(
    oneof
      [
        map (fun i -> T.Var (Printf.sprintf "V%d" (i mod 4))) small_nat;
        map (fun i -> ti (i mod 3)) small_nat;
      ])

let prop_mgu_is_unifier =
  qtest "mgu actually unifies the pairs"
    QCheck.(list_of_size (Gen.int_range 1 6) (pair arb_term arb_term))
    (fun pairs ->
      match mgu pairs with
      | None -> true
      | Some s ->
          List.for_all
            (fun (a, b) ->
              T.equal (Sub.apply_term s a) (Sub.apply_term s b))
            pairs)

let prop_mgu_idempotent =
  qtest "mgu is idempotent"
    QCheck.(list_of_size (Gen.int_range 1 6) (pair arb_term arb_term))
    (fun pairs ->
      match mgu pairs with
      | None -> true
      | Some s ->
          List.for_all
            (fun (_, t) -> T.equal (Sub.apply_term s t) t)
            (Sub.to_list s))

let suite =
  [
    Alcotest.test_case "apply" `Quick test_apply;
    Alcotest.test_case "extend" `Quick test_extend;
    Alcotest.test_case "compose" `Quick test_compose;
    Alcotest.test_case "mgu basics" `Quick test_mgu_basic;
    Alcotest.test_case "mgu transitive" `Quick test_mgu_transitive;
    Alcotest.test_case "mgu chain conflict" `Quick test_mgu_conflict_through_chain;
    Alcotest.test_case "unify atoms" `Quick test_unify_atoms;
    Alcotest.test_case "classes/members" `Quick test_classes_members;
    prop_mgu_is_unifier;
    prop_mgu_idempotent;
  ]
