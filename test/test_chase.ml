open Testutil
module Cq = Dc_cq
module D = Dc_cq.Dependency
module Ch = Dc_cq.Chase

let q = parse

let fd_family =
  (* FID → FName, Desc on Family(FID, FName, Desc) *)
  D.functional_dependency ~rel:"Family" ~arity:3 ~determinant:[ 0 ]
    ~dependent:[ 1; 2 ]

let test_fd_construction () =
  Alcotest.(check int) "two EGDs" 2 (List.length fd_family);
  Alcotest.(check bool) "bad column rejected" true
    (try
       ignore
         (D.functional_dependency ~rel:"R" ~arity:2 ~determinant:[ 5 ]
            ~dependent:[ 0 ]);
       false
     with Invalid_argument _ -> true)

let test_key_of_schema () =
  let deps = D.key_of_schema Dc_gtopdb.Schema_def.family in
  Alcotest.(check int) "FID key -> 2 EGDs" 2 (List.length deps);
  Alcotest.(check int) "no key -> none" 0
    (List.length
       (D.key_of_schema
          (Dc_relational.Schema.make "NoKey" [ Dc_relational.Schema.attr "A" ])))

let test_egd_merges_variables () =
  (* Q(N1,N2) :- Family(F,N1,D1), Family(F,N2,D2) chased with the FD
     merges N1/N2 and D1/D2. *)
  let query = q "Q(N1,N2) :- Family(F,N1,D1), Family(F,N2,D2)" in
  match Ch.chase fd_family query with
  | Ch.Unsatisfiable -> Alcotest.fail "should be satisfiable"
  | Ch.Chased chased ->
      Alcotest.(check int) "one atom after merge" 1
        (List.length (Cq.Query.body chased));
      (match Cq.Query.head chased with
      | [ a; b ] -> Alcotest.(check bool) "head vars merged" true (Cq.Term.equal a b)
      | _ -> Alcotest.fail "binary head")

let test_egd_unsatisfiable () =
  (* same key, two different constant names *)
  let query = q "Q(F) :- Family(F,\"A\",D1), Family(F,\"B\",D2)" in
  Alcotest.(check bool) "unsat" true (Ch.chase fd_family query = Ch.Unsatisfiable)

let test_containment_under_fd () =
  (* without the FD, Q1 (two copies sharing the key) is strictly weaker
     than Q2 (one atom exposing both); under the FD they are equivalent *)
  let q1 = q "Q(F,N,D) :- Family(F,N,D1), Family(F,N2,D)" in
  let q2 = q "Q(F,N,D) :- Family(F,N,D)" in
  Alcotest.(check bool) "not equivalent without deps" false
    (Cq.Containment.equivalent q1 q2);
  Alcotest.(check bool) "equivalent under FD" true
    (Ch.equivalent fd_family q1 q2);
  (* the trivially-true direction also holds *)
  Alcotest.(check bool) "q2 in q1 under FD" true (Ch.contained fd_family q2 q1)

let test_unsat_contained_in_everything () =
  let unsat = q "Q(F) :- Family(F,\"A\",D1), Family(F,\"B\",D2)" in
  Alcotest.(check bool) "unsat contained anywhere" true
    (Ch.contained fd_family unsat (q "Q(X) :- Committee(X,Y)"))

let test_tgd_adds_atoms () =
  (* inclusion: Committee[FID] ⊆ Family[FID] *)
  let inc =
    D.inclusion ~name:"committee_fid" ~src:("Committee", [ 0 ])
      ~dst:("Family", [ 0 ]) ~src_arity:2 ~dst_arity:3
  in
  let query = q "Q(F,P) :- Committee(F,P)" in
  (match Ch.chase [ inc ] query with
  | Ch.Unsatisfiable -> Alcotest.fail "satisfiable"
  | Ch.Chased chased ->
      Alcotest.(check int) "Family atom added" 2
        (List.length (Cq.Query.body chased)));
  (* with the TGD, the join with Family is implied *)
  let joined = q "Q(F,P) :- Committee(F,P), Family(F,N,D)" in
  Alcotest.(check bool) "equivalent under inclusion" true
    (Ch.equivalent [ inc ] query joined);
  Alcotest.(check bool) "not equivalent without" false
    (Cq.Containment.equivalent query joined)

let test_tgd_not_fired_when_satisfied () =
  let inc =
    D.inclusion ~name:"committee_fid" ~src:("Committee", [ 0 ])
      ~dst:("Family", [ 0 ]) ~src_arity:2 ~dst_arity:3
  in
  let query = q "Q(F,P) :- Committee(F,P), Family(F,N,D)" in
  match Ch.chase [ inc ] query with
  | Ch.Unsatisfiable -> Alcotest.fail "satisfiable"
  | Ch.Chased chased ->
      Alcotest.(check int) "nothing added" 2 (List.length (Cq.Query.body chased))

let test_chase_overflow () =
  (* a TGD that keeps generating fresh tuples: R(x,y) -> ∃z R(y,z) *)
  let diverging =
    Result.get_ok
      (D.tgd ~name:"grow"
         ~body:[ Cq.Atom.make "R" [ Cq.Term.Var "X"; Cq.Term.Var "Y" ] ]
         ~head:[ Cq.Atom.make "R" [ Cq.Term.Var "Y"; Cq.Term.Var "Z" ] ])
  in
  Alcotest.(check bool) "overflow raised" true
    (try
       ignore (Ch.chase ~max_steps:50 [ diverging ] (q "Q(X) :- R(X,Y)"));
       false
     with Ch.Chase_overflow -> true)

let test_rewriting_under_key () =
  (* Two projections of Family joined on the key reconstruct it —
     invisible to dependency-free rewriting, found under the FD. *)
  let module Rw = Dc_rewriting in
  let views =
    Rw.View.Set.of_list
      [
        Rw.View.of_query (q "VName(FID,FName) :- Family(FID,FName,Desc)");
        Rw.View.of_query (q "VDesc(FID,Desc) :- Family(FID,FName,Desc)");
      ]
  in
  let query = q "Q(FID,FName,Desc) :- Family(FID,FName,Desc)" in
  let plain = (Rw.Rewrite.search views query).Rw.Rewrite.queries in
  Alcotest.(check int) "not found without deps" 0 (List.length plain);
  let under, stats =
    Rw.Rewrite.rewritings_under_deps ~deps:fd_family views query
  in
  Alcotest.(check bool) "found under key" true (under <> []);
  Alcotest.(check bool) "no truncation" false stats.truncated;
  match under with
  | r :: _ ->
      Alcotest.(check (list string)) "joins the two projections"
        [ "VDesc"; "VName" ]
        (Cq.Query.predicates r)
  | [] -> ()

let test_rewriting_under_deps_matches_plain_when_trivial () =
  (* with no applicable deps the subset enumerator must agree with the
     standard one on the paper's example *)
  let module Rw = Dc_rewriting in
  let views =
    Rw.View.Set.of_list
      (List.map Dc_citation.Citation_view.view Dc_gtopdb.Paper_views.all)
  in
  let plain =
    (Rw.Rewrite.search views Dc_gtopdb.Paper_views.query_q).Rw.Rewrite.queries
  in
  let under, _ =
    Rw.Rewrite.rewritings_under_deps ~deps:[] views
      Dc_gtopdb.Paper_views.query_q
  in
  Alcotest.(check int) "same count" (List.length plain) (List.length under)

(* [Int 1] and [Float 1.0] print alike; the entry dedup must still
   keep both view atoms, or the query below has no rewriting. *)
let test_rewriting_under_deps_typed_constants () =
  let module Rw = Dc_rewriting in
  let views = Rw.View.Set.of_list [ Rw.View.of_query (q "V(A,B) :- R(A,B)") ] in
  let query = q "Q(X) :- R(X,1), R(X,1.0)" in
  let plain = (Rw.Rewrite.search views query).Rw.Rewrite.queries in
  let under, _ = Rw.Rewrite.rewritings_under_deps ~deps:[] views query in
  Alcotest.(check int) "search finds one" 1 (List.length plain);
  Alcotest.(check (list string)) "same rewritings under no deps"
    (List.map (fun r -> Cq.Query.to_string (Cq.Query.with_name "Q" r)) plain)
    (List.map (fun r -> Cq.Query.to_string (Cq.Query.with_name "Q" r)) under)

let suite =
  [
    Alcotest.test_case "fd construction" `Quick test_fd_construction;
    Alcotest.test_case "key_of_schema" `Quick test_key_of_schema;
    Alcotest.test_case "egd merges" `Quick test_egd_merges_variables;
    Alcotest.test_case "egd unsatisfiable" `Quick test_egd_unsatisfiable;
    Alcotest.test_case "containment under FD" `Quick test_containment_under_fd;
    Alcotest.test_case "unsat contained" `Quick test_unsat_contained_in_everything;
    Alcotest.test_case "tgd adds atoms" `Quick test_tgd_adds_atoms;
    Alcotest.test_case "tgd satisfied" `Quick test_tgd_not_fired_when_satisfied;
    Alcotest.test_case "chase overflow" `Quick test_chase_overflow;
    Alcotest.test_case "rewriting under key" `Quick test_rewriting_under_key;
    Alcotest.test_case "deps-enumerator sanity" `Quick test_rewriting_under_deps_matches_plain_when_trivial;
    Alcotest.test_case "deps-enumerator: typed constant dedup" `Quick
      test_rewriting_under_deps_typed_constants;
  ]
