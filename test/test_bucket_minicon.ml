open Testutil
module Cq = Dc_cq
module Rw = Dc_rewriting
module B = Dc_rewriting.Bucket
module M = Dc_rewriting.Minicon
module V = Dc_rewriting.View
module VE = Dc_citation.Versioned_engine
module VS = Dc_relational.Version_store

let q = parse

let paper_vset () =
  V.Set.of_list
    (List.map Dc_citation.Citation_view.view Dc_gtopdb.Paper_views.all)

let bucket_sizes bs = Array.to_list (Array.map List.length bs)

let test_bucket_sizes () =
  let buckets =
    B.buckets ~level:B.Filtered (paper_vset ()) Dc_gtopdb.Paper_views.query_q
  in
  (* Family subgoal: V1 and V2; FamilyIntro subgoal: V3 *)
  Alcotest.(check (list int)) "sizes" [ 2; 1 ] (bucket_sizes buckets)

let test_bucket_naive_keeps_nonexposing () =
  (* a view hiding FName cannot expose the distinguished variable:
     Filtered drops it, Naive keeps it *)
  let views =
    V.Set.of_list
      [
        V.of_query (q "VHide(Desc) :- Family(FID,FName,Desc)");
        V.of_query (q "V3(FID,Text) :- FamilyIntro(FID,Text)");
      ]
  in
  let query = Dc_gtopdb.Paper_views.query_q in
  let naive = B.buckets ~level:B.Naive views query in
  let filtered = B.buckets ~level:B.Filtered views query in
  Alcotest.(check (list int)) "naive keeps" [ 1; 1 ] (bucket_sizes naive);
  Alcotest.(check (list int)) "filtered drops" [ 0; 1 ]
    (bucket_sizes filtered)

let test_bucket_entry_covers_its_subgoal () =
  let buckets =
    B.buckets ~level:B.Filtered (paper_vset ()) Dc_gtopdb.Paper_views.query_q
  in
  Array.iteri
    (fun i bucket ->
      List.iter
        (fun (e : Rw.Candidate.t) ->
          Alcotest.(check (list int)) "covers own subgoal" [ i ] e.covered)
        bucket)
    buckets

let test_minicon_dedup () =
  (* MCDs reachable from multiple seeds appear once *)
  let views =
    V.Set.of_list
      [ V.of_query (q "VJ(X) :- R(X,Y), S(Y,X)") ]
  in
  let query = q "Q(A) :- R(A,B), S(B,A)" in
  let mcds = M.descriptions views query in
  Alcotest.(check int) "one MCD" 1 (List.length mcds);
  match mcds with
  | [ m ] ->
      Alcotest.(check (list int)) "covers both subgoals" [ 0; 1 ] m.covered
  | _ -> ()

(* MCDs that print alike must not be merged.  The symmetric view maps
   onto one query subgoal two ways: [V(1,"1")] and [V("1",1)], which
   print alike but are different atoms; so are [V(X,"X")] and
   [V("X",X)], a query variable beside a string of the same text.
   Keyed on their text, one of each pair is lost, and with it the
   second minimal rewriting. *)
let test_minicon_typed_key () =
  let views = V.Set.of_list [ V.of_query (q "V(A,B) :- R(A,B), R(B,A)") ] in
  let atoms query =
    List.sort compare
      (List.map
         (fun (c : Dc_rewriting.Candidate.t) ->
           ( c.covered,
             Printf.sprintf "V(%s)"
               (String.concat ","
                  (List.map (Format.asprintf "%a" Dc_cq.Term.pp) (Dc_cq.Atom.args c.atom))) ))
         (M.descriptions views query))
  in
  Alcotest.(check (list (pair (list int) string)))
    "constants: both MCDs of each subgoal"
    [
      ([ 0 ], {|V("1",1)|}); ([ 0 ], {|V(1,"1")|});
      ([ 1 ], {|V("1",1)|}); ([ 1 ], {|V(1,"1")|});
    ]
    (atoms (q {|Q(N) :- R(1,"1"), R("1",1), S(N)|}));
  Alcotest.(check int) "variable beside its text: both MCDs of each subgoal" 4
    (List.length (atoms (q {|Q(X) :- R(X,"X"), R("X",X)|})));
  let rewritings =
    (Dc_rewriting.Rewrite.search views (q {|Q(X) :- R(X,"X"), R("X",X)|}))
      .queries
  in
  Alcotest.(check int) "two minimal rewritings" 2 (List.length rewritings)

let test_minicon_rejects_distinguished_in_existential () =
  (* V hides X entirely; Q needs X in the head: no MCD *)
  let views = V.Set.of_list [ V.of_query (q "VBad(Y) :- R(X,Y)") ] in
  let query = q "Q(X) :- R(X,Y)" in
  Alcotest.(check int) "no MCD" 0 (List.length (M.descriptions views query))

let test_minicon_constant_compatibility () =
  let views = V.Set.of_list [ V.of_query (q "VC(X) :- R(X,3)") ] in
  Alcotest.(check int) "matching constant" 1
    (List.length (M.descriptions views (q "Q(A) :- R(A,3)")));
  Alcotest.(check int) "clashing constant" 0
    (List.length (M.descriptions views (q "Q(A) :- R(A,4)")));
  (* view constant vs query variable at an exposed position: the view
     can still cover (restricting), candidate verification decides *)
  Alcotest.(check bool) "var position" true
    (List.length (M.descriptions views (q "Q(A) :- R(A,B)")) >= 0)

(* time-based citing *)

let test_cite_at_time () =
  let views = Dc_gtopdb.Paper_views.all in
  let query = Dc_gtopdb.Paper_views.query_q in
  let ve = VE.of_engine @@ Dc_citation.Engine.create (paper_db ()) views in
  (* default clock: version 0 at time 1 *)
  ignore
    (Result.get_ok
       (VE.commit_delta ve
          (Dc_relational.Delta.delete Dc_relational.Delta.empty "FamilyIntro"
             (tuple [ int 21; str "Dopamine intro" ]))));
  (* version 1 at time 2 *)
  let cite_at_time time =
    match VS.version_at (VE.store ve) time with
    | None -> Error (Printf.sprintf "no version at or before time %d" time)
    | Some v -> VE.cite_at ve v query
  in
  let answers c = List.length (cited_tuples c) in
  (match cite_at_time 1 with
  | Error e -> Alcotest.fail e
  | Ok vc ->
      Alcotest.(check int) "time 1 -> v0" 0 vc.version;
      Alcotest.(check int) "full answer" 2 (answers vc);
      (* the stamp verifies, and re-citing its version gives back the
         cited tuples *)
      Alcotest.(check bool) "cite_at verifies" true
        (VE.verify ve 0 vc.digest = Ok true
        && List.equal Dc_relational.Tuple.equal
             (cited_tuples (Result.get_ok (VE.cite_at ve 0 query)))
             (cited_tuples vc)));
  (match cite_at_time 99 with
  | Error e -> Alcotest.fail e
  | Ok vc ->
      Alcotest.(check int) "late time -> head" 1 vc.version;
      Alcotest.(check int) "shrunk answer" 1 (answers vc));
  Alcotest.(check bool) "time before epoch" true
    (Result.is_error (cite_at_time 0));
  Alcotest.(check bool) "cite_at unknown version" true
    (Result.is_error (VE.cite_at ve 42 query))

let test_custom_clock () =
  let t = ref 100 in
  let clock () =
    t := !t + 10;
    !t
  in
  let store = VS.create ~clock (paper_db ()) in
  let store, v1 = VS.commit store (paper_db ()) in
  Alcotest.(check (option int)) "v0 at 110" (Some 110) (VS.timestamp store 0);
  Alcotest.(check (option int)) "v1 at 120" (Some 120) (VS.timestamp store v1);
  Alcotest.(check (option int)) "lookup by custom time" (Some 0)
    (VS.version_at store 115)

let suite =
  [
    Alcotest.test_case "bucket sizes" `Quick test_bucket_sizes;
    Alcotest.test_case "naive keeps non-exposing" `Quick test_bucket_naive_keeps_nonexposing;
    Alcotest.test_case "bucket coverage" `Quick test_bucket_entry_covers_its_subgoal;
    Alcotest.test_case "minicon dedup" `Quick test_minicon_dedup;
    Alcotest.test_case "minicon dedup keys typed terms" `Quick
      test_minicon_typed_key;
    Alcotest.test_case "minicon distinguished filter" `Quick test_minicon_rejects_distinguished_in_existential;
    Alcotest.test_case "minicon constants" `Quick test_minicon_constant_compatibility;
    Alcotest.test_case "cite at time" `Quick test_cite_at_time;
    Alcotest.test_case "custom clock" `Quick test_custom_clock;
  ]
