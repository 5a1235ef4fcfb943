open Testutil
module E = Dc_citation.Cite_expr
module P = Dc_provenance.Polynomial

let l1 = E.leaf ~view:"V1" ~params:[ ("FID", int 11) ]
let l1' = E.leaf ~view:"V1" ~params:[ ("FID", int 12) ]
let l2 = E.leaf ~view:"V2" ~params:[]
let l3 = E.leaf ~view:"V3" ~params:[]

let test_normalize_flatten () =
  let nested = E.alt [ E.alt [ l1; l1' ]; l2 ] in
  let flat = E.alt [ l1; l1'; l2 ] in
  Alcotest.(check cite_expr) "flattened" flat nested

let test_normalize_dedup () =
  let dup = E.joint [ l2; l2; l3 ] in
  Alcotest.(check cite_expr) "deduped" (E.joint [ l2; l3 ]) dup

let test_normalize_singleton () =
  Alcotest.(check cite_expr) "singleton unwrapped" l2 (E.joint [ l2 ]);
  Alcotest.(check cite_expr) "nested singletons" l2 (E.agg [ E.alt_r [ E.alt [ l2 ] ] ])

let test_normalize_order_insensitive () =
  Alcotest.(check cite_expr) "sorted" (E.alt [ l1; l2 ]) (E.alt [ l2; l1 ])

let test_paper_expression () =
  (* (CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3) *)
  let q1 = E.alt [ E.joint [ l1; l3 ]; E.joint [ l1'; l3 ] ] in
  let q2 = E.joint [ l2; l3 ] in
  let full = E.alt_r [ q1; q2 ] in
  Alcotest.(check int) "four distinct leaves" 4 (E.size full);
  let printed = E.to_string full in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions CV1(11)" true (contains printed "CV1(11)")

let test_pp_shape () =
  let q1 = E.alt [ E.joint [ l1; l3 ]; E.joint [ l1'; l3 ] ] in
  let q2 = E.joint [ l2; l3 ] in
  let printed = E.to_string (E.alt_r [ q1; q2 ]) in
  (* normalization sorts the +R children; accept either order *)
  let expected_a = "(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)" in
  let expected_b = "(CV2·CV3) +R (CV1(11)·CV3 + CV1(12)·CV3)" in
  Alcotest.(check bool)
    (Printf.sprintf "printed %s" printed)
    true
    (printed = expected_a || printed = expected_b)

let test_leaves_and_size () =
  let e = E.alt_r [ E.joint [ l1; l3 ]; E.joint [ l2; l3 ] ] in
  Alcotest.(check int) "three distinct leaves" 3 (E.size e)

let test_to_polynomial () =
  let e = E.alt [ E.joint [ l1; l3 ]; E.joint [ l1'; l3 ] ] in
  let p = Dc_repro.Annotated.citation_polynomial e in
  Alcotest.(check int) "two monomials" 2 (List.length (P.monomials p));
  Alcotest.(check int) "degree 2" 2 (P.degree p);
  Alcotest.(check (list string)) "tokens" [ "CV1(11)"; "CV1(12)"; "CV3" ]
    (P.variables p)

(* Canonicalization: [leaves] returns each distinct leaf once, sorted,
   however often and wherever it occurs in the tree. *)
let test_leaves_canonical () =
  let e = E.alt_r [ E.joint [ l3; l1; l3 ]; E.joint [ l2; l1 ]; l3 ] in
  let ls = E.leaves e in
  Alcotest.(check int) "three unique leaves" 3 (List.length ls);
  Alcotest.(check (list string)) "sorted by view" [ "V1"; "V2"; "V3" ]
    (List.map (fun (l : E.leaf) -> l.view) ls)

(* The constructors normalize one node at a time; the oracle normalizes
   a whole raw tree literally.  Random raw trees nest same-operator
   nodes, and have singletons, empty nodes and repeated children; their
   leaves take values that print alike but differ ([Int 1], [Str "1"])
   or compare equal but print apart ([Float 0.0], [Float (-0.0)]), so
   the comparison is node for node and tells those representatives
   apart. *)
module Raw = Dc_oracle.Raw_expr

let gen_raw =
  let open QCheck.Gen in
  let value =
    oneofl R.Value.[ Int 1; Str "1"; Float 0.0; Float (-0.0); Int 2 ]
  in
  let leaf =
    let* view = oneofl [ "A"; "B" ] in
    let+ params =
      oneof [ return []; map (fun v -> [ ("p", v) ]) value ]
    in
    Raw.Leaf { view; params }
  in
  let op =
    oneofl
      [
        (fun xs -> Raw.Joint xs);
        (fun xs -> Raw.Alt xs);
        (fun xs -> Raw.AltR xs);
        (fun xs -> Raw.Agg xs);
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 3,
              let* mk = op in
              let* xs = list_size (int_bound 4) (self (depth - 1)) in
              (* a repeated child, and a child of the same operator *)
              let* dup = bool and* nest = bool in
              let xs = if dup && xs <> [] then List.hd xs :: xs else xs in
              let+ inner = list_size (int_bound 3) (self (depth - 1)) in
              mk (if nest then mk inner :: xs else xs) );
          ])
    3

let rec same (a : Raw.t) (b : Raw.t) =
  let same_value (v : R.Value.t) (w : R.Value.t) =
    match (v, w) with
    | Float x, Float y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | v, w -> R.Value.compare v w = 0
  in
  match (a, b) with
  | Leaf x, Leaf y ->
      String.equal x.view y.view
      && List.equal
           (fun (n, v) (m, w) -> String.equal n m && same_value v w)
           x.params y.params
  | Joint xs, Joint ys | Alt xs, Alt ys | AltR xs, AltR ys | Agg xs, Agg ys ->
      List.equal same xs ys
  | _ -> false

let rec show : Raw.t -> string =
  let node op xs = op ^ "[" ^ String.concat "; " (List.map show xs) ^ "]" in
  function
  | Leaf l ->
      let value (_, v) = Format.asprintf "%a" R.Value.pp v in
      l.view ^ "(" ^ String.concat "," (List.map value l.params) ^ ")"
  | Joint xs -> node "Joint" xs
  | Alt xs -> node "Alt" xs
  | AltR xs -> node "AltR" xs
  | Agg xs -> node "Agg" xs

let prop_constructors_normalize =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"smart constructors = literal normalizer"
       ~count:1000 (QCheck.make ~print:show gen_raw) (fun raw ->
         let want = Raw.normalize raw in
         same (Raw.of_expr (Raw.to_expr raw)) want
         && same (Raw.of_expr (Raw.to_expr want)) want))

let suite =
  [
    prop_constructors_normalize;
    Alcotest.test_case "flatten" `Quick test_normalize_flatten;
    Alcotest.test_case "dedup" `Quick test_normalize_dedup;
    Alcotest.test_case "singleton unwrap" `Quick test_normalize_singleton;
    Alcotest.test_case "order insensitive" `Quick test_normalize_order_insensitive;
    Alcotest.test_case "paper expression" `Quick test_paper_expression;
    Alcotest.test_case "pp shape" `Quick test_pp_shape;
    Alcotest.test_case "leaves/size" `Quick test_leaves_and_size;
    Alcotest.test_case "leaves canonical" `Quick test_leaves_canonical;
    Alcotest.test_case "to_polynomial" `Quick test_to_polynomial;
  ]
