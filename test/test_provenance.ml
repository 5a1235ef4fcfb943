open Testutil
module P = Dc_provenance.Polynomial
module S = Dc_provenance.Semiring
module A = Dc_repro.Annotated

(* Semiring laws, checked per instance with its own generator. *)
let laws (type t) name (module K : S.S with type t = t) arb =
  let module Q = QCheck in
  [
    qtest (name ^ ": plus comm") (Q.pair arb arb) (fun (a, b) ->
        K.equal (K.plus a b) (K.plus b a));
    qtest (name ^ ": times comm") (Q.pair arb arb) (fun (a, b) ->
        K.equal (K.times a b) (K.times b a));
    qtest (name ^ ": plus assoc") (Q.triple arb arb arb) (fun (a, b, c) ->
        K.equal (K.plus a (K.plus b c)) (K.plus (K.plus a b) c));
    qtest (name ^ ": times assoc") (Q.triple arb arb arb) (fun (a, b, c) ->
        K.equal (K.times a (K.times b c)) (K.times (K.times a b) c));
    qtest (name ^ ": identities") arb (fun a ->
        K.equal (K.plus a K.zero) a && K.equal (K.times a K.one) a);
    qtest (name ^ ": zero absorbs") arb (fun a ->
        K.equal (K.times a K.zero) K.zero);
    qtest (name ^ ": distributivity") (Q.triple arb arb arb) (fun (a, b, c) ->
        K.equal (K.times a (K.plus b c)) (K.plus (K.times a b) (K.times a c)));
  ]

let arb_bool = QCheck.bool
let arb_count = QCheck.(map (fun i -> i mod 20) small_nat)

let arb_trop =
  QCheck.(
    oneof [ always None; map (fun i -> Some (i mod 50)) small_nat ])

let arb_lineage =
  QCheck.(
    oneof
      [
        always None;
        map
          (fun l ->
            Some
              (S.String_set.of_list
                 (List.map (fun i -> Printf.sprintf "t%d" (i mod 5)) l)))
          (list_of_size (Gen.int_range 0 4) small_nat);
      ])

let arb_why =
  QCheck.(
    map
      (fun witnesses ->
        S.Witness_sets.of_list
          (List.map
             (List.map (fun i -> Printf.sprintf "t%d" (i mod 4)))
             witnesses))
      (list_of_size (Gen.int_range 0 3)
         (list_of_size (Gen.int_range 0 3) small_nat)))

let arb_poly =
  QCheck.(
    map
      (fun ops ->
        List.fold_left
          (fun acc op ->
            match op with
            | 0, i -> P.plus acc (P.var (Printf.sprintf "x%d" (i mod 4)))
            | 1, i -> P.times acc (P.var (Printf.sprintf "x%d" (i mod 4)))
            | _, i -> P.plus acc (P.of_int (i mod 3))
          )
          P.one ops)
      (list_of_size (Gen.int_range 0 6) (pair (int_bound 2) small_nat)))

let test_poly_basics () =
  let x = P.var "x" and y = P.var "y" in
  let p = P.times (P.plus x y) (P.plus x y) in
  (* (x+y)^2 = x^2 + 2xy + y^2 *)
  Alcotest.(check int) "three monomials" 3 (List.length (P.monomials p));
  Alcotest.(check int) "degree 2" 2 (P.degree p);
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (P.variables p);
  Alcotest.(check string) "printed" "2·x·y + x^2 + y^2" (P.to_string p)

let test_poly_eval_hom () =
  (* evaluate (x+y)·z at x=2, y=3, z=4 in counting: (2+3)*4 = 20 *)
  let p = P.times (P.plus (P.var "x") (P.var "y")) (P.var "z") in
  let v = function "x" -> 2 | "y" -> 3 | _ -> 4 in
  Alcotest.(check int) "counting" 20 (P.eval (module S.Counting) v p);
  (* same polynomial into boolean with x=false,y=true,z=true: true *)
  let vb = function "x" -> false | _ -> true in
  Alcotest.(check bool) "boolean" true (P.eval (module S.Boolean) vb p)

let test_poly_eval_tropical () =
  (* min-plus: (x+y)·z with x=5, y=2, z=10 -> min(5,2)+10 = 12 *)
  let p = P.times (P.plus (P.var "x") (P.var "y")) (P.var "z") in
  let v = function "x" -> Some 5 | "y" -> Some 2 | _ -> Some 10 in
  Alcotest.(check bool) "tropical" true
    (S.Tropical.equal (Some 12) (P.eval (module S.Tropical) v p))

let annotated_db () =
  (* Green et al. style example on the RS database *)
  A.Poly.of_database (rs_db ())

let poly_for results key =
  match
    List.find_opt (fun (t, _) -> Dc_relational.Tuple.equal t key) results
  with
  | Some (_, p) -> p
  | None -> Alcotest.fail "missing annotated tuple"

let test_annotated_eval () =
  let t = annotated_db () in
  let q = parse "Q(Y) :- R(X,Y)" in
  let results = A.Poly.eval t q in
  (* tuple (3) has two derivations: through R(2,3) and R(3,3) *)
  let p3 = poly_for results (int_tuple [ 3 ]) in
  Alcotest.(check bool) "sum of two indeterminates" true
    (P.equal p3 (P.plus (P.var "R(2,3)") (P.var "R(3,3)")));
  let p2 = poly_for results (int_tuple [ 2 ]) in
  Alcotest.(check bool) "single derivation" true (P.equal p2 (P.var "R(1,2)"))

let test_annotated_join () =
  let t = annotated_db () in
  let q = parse "Q(X,C) :- R(X,Z), S(Z,C)" in
  let results = A.Poly.eval t q in
  let p = poly_for results (tuple [ int 1; str "a" ]) in
  (* joint derivation: product of the two tuple variables *)
  Alcotest.(check bool) "product" true
    (P.equal p (P.times (P.var "R(1,2)") (P.var "S(2,a)")))

let test_annotated_selfjoin_square () =
  (* Q(X) :- R(X,Y), R(X,Z): for X=3 the derivation through R(3,3) is
     R(3,3)^2 — bag semantics would count it once per pair. *)
  let t = annotated_db () in
  let q = parse "Q(X) :- R(X,Y), R(X,Z)" in
  let results = A.Poly.eval t q in
  let p3 = poly_for results (int_tuple [ 3 ]) in
  Alcotest.(check int) "degree two" 2 (P.degree p3)

let test_counting_vs_boolean () =
  let module MC = A.Make (S.Counting) in
  let module MB = A.Make (S.Boolean) in
  let db = rs_db () in
  let tc = MC.of_database (fun _ _ -> 1) db in
  let tb = MB.of_database (fun _ _ -> true) db in
  let q = parse "Q(Y) :- R(X,Y)" in
  Alcotest.(check int) "multiplicity 2" 2
    (MC.eval_annotation tc q (int_tuple [ 3 ]));
  Alcotest.(check bool) "present" true
    (MB.eval_annotation tb q (int_tuple [ 3 ]));
  Alcotest.(check int) "absent -> 0" 0
    (MC.eval_annotation tc q (int_tuple [ 99 ]))

let test_zero_annotations_removed () =
  let module MC = A.Make (S.Counting) in
  let db = rs_db () in
  (* annotate R(1,2) with zero: it disappears from the support *)
  let t =
    MC.of_database
      (fun rel tp ->
        if rel = "R" && Dc_relational.Tuple.equal tp (int_tuple [ 1; 2 ]) then 0
        else 1)
      db
  in
  let q = parse "Q(X,Y) :- R(X,Y)" in
  Alcotest.(check int) "only two R tuples" 2 (List.length (MC.eval t q))

let test_why_provenance () =
  let module MW = A.Make (S.Why) in
  let db = rs_db () in
  let t =
    MW.of_database
      (fun rel tp ->
        S.Witness_sets.of_list [ [ A.tuple_id rel tp ] ])
      db
  in
  let q = parse "Q(Y) :- R(X,Y)" in
  let w = MW.eval_annotation t q (int_tuple [ 3 ]) in
  Alcotest.(check int) "two witnesses" 2
    (List.length (S.Witness_sets.to_list w))

(* The universality of N[X]: evaluating the polynomial annotation under
   a valuation equals evaluating directly in the target semiring. *)
let prop_poly_universal =
  qtest "N[X] factors through any semiring" QCheck.(int_bound 300)
    (fun seed ->
      let db =
        Dc_gtopdb.Generator.generate ~seed
          ~config:(Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config ~families:8)
          ()
      in
      let tpoly = A.Poly.of_database db in
      let module MC = A.Make (S.Counting) in
      let tcount = MC.of_database (fun _ _ -> 1) db in
      List.for_all
        (fun q ->
          let poly_results = A.Poly.eval tpoly q in
          List.for_all
            (fun (tp, p) ->
              P.eval (module S.Counting) (fun _ -> 1) p
              = MC.eval_annotation tcount q tp)
            poly_results)
        (Dc_repro.Workload.generate ~seed ~count:3))

let suite =
  laws "boolean" (module S.Boolean) arb_bool
  @ laws "counting" (module S.Counting) arb_count
  @ laws "tropical" (module S.Tropical) arb_trop
  @ laws "lineage" (module S.Lineage) arb_lineage
  @ laws "why" (module S.Why) arb_why
  @ laws "polynomial" (module P.Free) arb_poly
  @ [
      Alcotest.test_case "polynomial basics" `Quick test_poly_basics;
      Alcotest.test_case "eval homomorphism" `Quick test_poly_eval_hom;
      Alcotest.test_case "eval tropical" `Quick test_poly_eval_tropical;
      Alcotest.test_case "annotated eval" `Quick test_annotated_eval;
      Alcotest.test_case "annotated join" `Quick test_annotated_join;
      Alcotest.test_case "self-join square" `Quick test_annotated_selfjoin_square;
      Alcotest.test_case "counting vs boolean" `Quick test_counting_vs_boolean;
      Alcotest.test_case "zero removed" `Quick test_zero_annotations_removed;
      Alcotest.test_case "why provenance" `Quick test_why_provenance;
      prop_poly_universal;
    ]
