open Testutil
module C = Dc_citation
module P = Dc_citation.Policy
module X = Dc_citation.Cite_expr

(* A resolver independent of any database: leaf -> one citation carrying
   a single marker snippet. *)
let resolve (l : X.leaf) =
  C.Citation.make ~view:l.view ~params:l.params
    ~snippets:[ C.Snippet.make ~source:l.view [ ("k", int (List.length l.params)) ] ]

let la = X.leaf ~view:"A" ~params:[]
let lb = X.leaf ~view:"B" ~params:[]
let lc1 = X.leaf ~view:"Cc" ~params:[ ("p", int 1) ]
let lc2 = X.leaf ~view:"Cc" ~params:[ ("p", int 2) ]

let eval policy e = P.eval ~resolve policy e

let test_union_everything () =
  let p = P.make ~alt_r:P.Keep_all () in
  let e = X.alt_r [ X.alt [ X.joint [ la; lb ]; X.joint [ lc1; lb ] ]; lc2 ] in
  Alcotest.(check int) "four distinct citations" 4
    (C.Citation.Set.size (eval p e))

let test_join_joint () =
  let p = P.make ~joint:P.Join ~alt_r:P.Keep_all () in
  let cs = eval p (X.joint [ la; lb ]) in
  Alcotest.(check int) "one composite" 1 (C.Citation.Set.size cs);
  Alcotest.(check string) "name" "A·B" (C.Citation.view (List.hd cs));
  Alcotest.(check int) "snippets merged" 2
    (List.length (C.Citation.snippets (List.hd cs)))

let test_join_distributes () =
  (* (a+b) · c under join for · and union for +: {a·c, b·c} *)
  let p = P.make ~joint:P.Join ~alt:P.Union () in
  let cs = eval p (X.joint [ X.alt [ la; lb ]; lc1 ]) in
  (* normalization puts the leaf first inside the Joint, so the
     composite names lead with Cc; · is commutative so this is fine *)
  Alcotest.(check (list string)) "pairwise" [ "Cc·A"; "Cc·B" ]
    (List.sort String.compare (List.map C.Citation.view cs))

let test_min_size () =
  let p = P.make ~alt_r:P.Min_size () in
  let big = X.alt [ lc1; lc2; la ] in
  let small = X.joint [ lb ] in
  let cs = eval p (X.alt_r [ big; small ]) in
  Alcotest.(check int) "picked small" 1 (C.Citation.Set.size cs);
  Alcotest.(check string) "B" "B" (C.Citation.view (List.hd cs))

let test_min_size_tie_break () =
  let p = P.make ~alt_r:P.Min_size () in
  (* equal sizes: earlier (post-normalization) wins deterministically *)
  let cs = eval p (X.alt_r [ la; lb ]) in
  Alcotest.(check int) "one" 1 (C.Citation.Set.size cs)

let test_first () =
  let p = P.make ~alt_r:P.First () in
  let cs = eval p (X.alt_r [ X.alt [ lc1; lc2 ]; la ]) in
  Alcotest.(check bool) "took one alternative" true
    (C.Citation.Set.size cs = 2 || C.Citation.Set.size cs = 1)

let test_empty_expr () =
  let p = P.default in
  Alcotest.(check int) "empty joint" 0 (C.Citation.Set.size (eval p (X.joint [])));
  Alcotest.(check int) "empty alt" 0 (C.Citation.Set.size (eval p (X.alt [])))

let test_compute_shapes () =
  (* Definition 2.1: binding over the paper's Q1 rewriting *)
  let cviews = C.Citation_view.Set.of_list Dc_gtopdb.Paper_views.all in
  let rw = parse "Q1(FName) :- V1(FID,FName,Desc), V3(FID,Text)" in
  let b =
    Dc_cq.Eval.Binding.of_list
      [ ("FID", int 11); ("FName", str "Calcitonin"); ("Desc", str "C1"); ("Text", str "1st") ]
  in
  let e = Dc_oracle.Definitions.binding_expr cviews rw b in
  Alcotest.(check cite_expr) "joint of two leaves"
    (X.joint
       [ X.leaf ~view:"V1" ~params:[ ("FID", int 11) ]; X.leaf ~view:"V3" ~params:[] ])
    (normal e);
  (* base atoms contribute nothing *)
  let rw_partial = parse "Qp(FName) :- V1(FID,FName,Desc), Committee(FID,PName)" in
  let b2 =
    Dc_cq.Eval.Binding.of_list
      [ ("FID", int 11); ("FName", str "Calcitonin"); ("Desc", str "C1"); ("PName", str "X") ]
  in
  let e2 = Dc_oracle.Definitions.binding_expr cviews rw_partial b2 in
  Alcotest.(check cite_expr) "only the view leaf"
    (X.leaf ~view:"V1" ~params:[ ("FID", int 11) ])
    (normal e2)

let test_policy_pp () =
  Alcotest.(check string) "default" "·=union, +=union, Agg=union, +R=min-size"
    (P.to_string P.default)

(* [Union] merges its operands in rounds; it must equal the left fold of
   the two-set union it replaced.  The pool draws equal-comparing but
   distinct values ([Float 0.0] and [Float (-0.0)]), so an equal pair
   must also resolve to the same (earlier) operand's element. *)
let gen_sets =
  let open QCheck.Gen in
  let value =
    oneofl R.Value.[ Int 0; Int 1; Int 2; Float 0.0; Float (-0.0); Str "1" ]
  in
  let citation =
    let* view = oneofl [ "A"; "B"; "C" ] in
    let* p = value in
    let+ snippet = oneofl [ []; [ "x" ]; [ "y" ] ] in
    C.Citation.make ~view ~params:[ ("p", p) ]
      ~snippets:
        (List.map (fun s -> C.Snippet.make ~source:s [ ("k", p) ]) snippet)
  in
  list_size (int_bound 40)
    (map C.Citation.Set.of_list
       (frequency [ (1, return []); (6, list_size (int_bound 8) citation) ]))

(* Printed, [Float (-0.0)] reads "-0": the text tells the
   representatives of an equal pair apart, as [=] on floats does not. *)
let texts s = List.map (Format.asprintf "%a" C.Citation.pp) s
let print_sets sets =
  String.concat " | " (List.map (fun s -> String.concat "; " (texts s)) sets)

let prop_union_all =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"union_all = left fold of union" ~count:500
       (QCheck.make ~print:print_sets gen_sets) (fun sets ->
         let folded = List.fold_left C.Citation.Set.union [] sets in
         let merged = C.Citation.Set.union_all sets in
         List.equal String.equal (texts merged) (texts folded)))

let suite =
  [
    prop_union_all;
    Alcotest.test_case "union everywhere" `Quick test_union_everything;
    Alcotest.test_case "join for ·" `Quick test_join_joint;
    Alcotest.test_case "join distributes over +" `Quick test_join_distributes;
    Alcotest.test_case "+R min-size" `Quick test_min_size;
    Alcotest.test_case "+R tie break" `Quick test_min_size_tie_break;
    Alcotest.test_case "+R first" `Quick test_first;
    Alcotest.test_case "empty expressions" `Quick test_empty_expr;
    Alcotest.test_case "Compute shapes (Def 2.1)" `Quick test_compute_shapes;
    Alcotest.test_case "policy printing" `Quick test_policy_pp;
  ]
