(* Per-version engines compute their data on demand: [Engine.refresh]
   only builds cells, and a cite forces the program's IDB extents when
   it reads them.  The oracle is an engine built the
   eager way: [Engine.of_program] over the checked-out version with
   every cell forced before the first cite.  Also here: [Once] itself,
   checks that a cite forces only what it reads and materializes no
   view extent, and a race suite in
   which several domains first-force one freshly refreshed engine. *)

open Testutil
module C = Dc_citation
module E = C.Engine
module V = C.Versioned_engine
module X = C.Cite_expr
module R = Dc_relational
module D = Dc_relational.Delta
module Once = Dc_parallel.Once

(* The curate-shaped program: a recursive subfamily closure exported as
   a per-family citation view. *)
let program =
  Dc_cq.Program.parse_exn
    {|
  Sub(P,C) :- Subfamily(P,C);
  Sub(P,C) :- Subfamily(P,M), Sub(M,C);
  export lambda P. VSub(P,C,CName) :- Sub(P,C), Family(C,CName,Desc);
  cite lambda P. CVSub(P,PName) :- Committee(P,PName)
|}

(* The paper's views, plus one whose citation query reads the IDB:
   resolving its leaves needs the derivation even though its extent
   does not. *)
let views =
  Dc_gtopdb.Paper_views.all
  @ [
      C.Citation_view.make_exn
        ~view:(parse "lambda P. VKids(P,C) :- Subfamily(P,C)")
        ~citations:[ parse "lambda P. CKids(P,D) :- Sub(P,D)" ]
        ();
    ]

let subfamily_schema =
  R.Schema.make "Subfamily"
    [
      R.Schema.attr ~ty:R.Value.TInt "Parent";
      R.Schema.attr ~ty:R.Value.TInt "Child";
    ]

(* A generated GtoPdb database plus a Subfamily forest: family [f] hangs
   under [f / 2] unless a one-in-five draw drops the edge. *)
let database ~seed ~families =
  let config =
    {
      (Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config ~families)
      with
      committee_min = 1;
      committee_max = 3;
      intro_ratio = 0.7;
    }
  in
  let db = Dc_gtopdb.Generator.generate ~config ~seed () in
  let rng = Random.State.make [| seed; 1 |] in
  let edges =
    List.filter_map
      (fun f ->
        if f = 1 || Random.State.int rng 5 = 0 then None
        else Some (int_tuple [ f / 2; f ]))
      (List.init families (fun i -> i + 1))
  in
  R.Database.insert_list
    (R.Database.create_relation db subfamily_schema)
    "Subfamily" edges

(* [#] is replaced by a family id. *)
let shapes =
  [|
    "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
    "C1(Child,CName) :- Sub(#,Child), Family(Child,CName,Desc)";
    "Q(P,C) :- Sub(P,C)";
    "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)";
    "Q(FID,FName,Desc) :- Family(FID,FName,Desc)";
    "Q(C,CName,PName) :- Sub(#,C), Family(C,CName,D), Committee(#,PName)";
    "Q(Text) :- FamilyIntro(#,Text)";
    "Q(C) :- Subfamily(#,C)";
    "Q(P,C) :- Subfamily(P,C)";
  |]

let query shape fid =
  parse
    (String.concat (string_of_int fid) (String.split_on_char '#' shapes.(shape)))

(* A delta operation, resolved against the head it is committed on:
   indices pick families and existing tuples modulo what is there. *)
type op =
  | Add_family of int
  | Add_intro of int
  | Add_member of int * int
  | Add_edge of int * int
  | Drop_member of int
  | Drop_edge of int
  | Drop_intro of int

let print_op = function
  | Add_family i -> Printf.sprintf "+family %d" i
  | Add_intro i -> Printf.sprintf "+intro %d" i
  | Add_member (i, p) -> Printf.sprintf "+member %d/%d" i p
  | Add_edge (p, c) -> Printf.sprintf "+edge %d->%d" p c
  | Drop_member i -> Printf.sprintf "-member %d" i
  | Drop_edge i -> Printf.sprintf "-edge %d" i
  | Drop_intro i -> Printf.sprintf "-intro %d" i

let people = [| "Debbie Hay"; "Kim Neve"; "Walter Born"; "Paul Chazot" |]

let delta_of db ops =
  let families = R.Relation.cardinality (R.Database.relation_exn db "Family") in
  let fid i = 1 + (i mod max 1 (families + 2)) in
  let nth rel i =
    match R.Relation.tuples (R.Database.relation_exn db rel) with
    | [] -> None
    | ts -> Some (List.nth ts (i mod List.length ts))
  in
  List.fold_left
    (fun d -> function
      | Add_family i ->
          let f = families + 1 + i in
          D.insert d "Family"
            (tuple [ int f; str (Printf.sprintf "New%d" f); str "n" ])
      | Add_intro i ->
          D.insert d "FamilyIntro" (tuple [ int (fid i); str "intro" ])
      | Add_member (i, p) ->
          D.insert d "Committee"
            (tuple [ int (fid i); str people.(p mod Array.length people) ])
      | Add_edge (p, c) -> D.insert d "Subfamily" (int_tuple [ fid p; fid c ])
      | Drop_member i ->
          Option.fold ~none:d ~some:(D.delete d "Committee") (nth "Committee" i)
      | Drop_edge i ->
          Option.fold ~none:d ~some:(D.delete d "Subfamily") (nth "Subfamily" i)
      | Drop_intro i ->
          Option.fold ~none:d
            ~some:(D.delete d "FamilyIntro")
            (nth "FamilyIntro" i))
    D.empty ops

type case = {
  seed : int;
  families : int;
  capacity : int;
  selection : E.selection;
  partial : bool;
  fallback : bool;
  alt_r : C.Policy.rewriting_choice;
  commits : op list list;
  cites : (int * int * int) list;  (** version index, shape, family *)
}

let selection_name = function
  | `All -> "all"
  | `Min_estimated_size -> "min-estimated"
  | `Min_exact_size -> "min-exact"

let print_case c =
  Printf.sprintf
    "seed %d, %d families, capacity %d, selection %s, partial %b, fallback \
     %b, policy %s, commits [%s], cites [%s]"
    c.seed c.families c.capacity (selection_name c.selection) c.partial
    c.fallback
    (C.Policy.to_string (C.Policy.make ~alt_r:c.alt_r ()))
    (String.concat "; "
       (List.map (fun ops -> String.concat "," (List.map print_op ops)) c.commits))
    (String.concat "; "
       (List.map
          (fun (v, s, f) ->
            Printf.sprintf "v%d %s" v (Dc_cq.Query.to_string (query s f)))
          c.cites))

let gen_case =
  let open QCheck.Gen in
  let small = int_bound 20 in
  let op =
    frequency
      [
        (2, map (fun i -> Add_family i) (int_bound 3));
        (2, map (fun i -> Add_intro i) small);
        (3, map2 (fun i p -> Add_member (i, p)) small small);
        (3, map2 (fun p c -> Add_edge (p, c)) small small);
        (2, map (fun i -> Drop_member i) small);
        (3, map (fun i -> Drop_edge i) small);
        (1, map (fun i -> Drop_intro i) small);
      ]
  in
  let* seed = int_bound 10_000 in
  let* families = int_range 2 14 in
  let* capacity = int_range 1 3 in
  let* selection = oneofl [ `All; `Min_estimated_size; `Min_exact_size ] in
  let* partial = bool in
  let* fallback = bool in
  let* alt_r = oneofl C.Policy.[ Keep_all; First; Min_size ] in
  let* commits = list_size (int_range 0 4) (list_size (int_range 1 4) op) in
  let* cites =
    list_size (int_range 1 6)
      (triple small
         (int_bound (Array.length shapes - 1))
         (int_range 1 (families + 1)))
  in
  return
    {
      seed;
      families;
      capacity;
      selection;
      partial;
      fallback;
      alt_r;
      commits;
      cites;
    }

let same_citations = List.equal C.Citation.equal

let same_result (a : E.result) (b : E.result) =
  List.equal Dc_cq.Query.equal_syntactic a.rewritings b.rewritings
  && List.equal Dc_cq.Query.equal_syntactic a.selected b.selected
  && Bool.equal a.complete b.complete
  && List.equal
       (fun (x : E.tuple_citation) (y : E.tuple_citation) ->
         R.Tuple.equal x.tuple y.tuple
         && X.compare x.expr y.expr = 0
         && same_citations x.citations y.citations)
       a.tuples b.tuples
  && X.compare a.result_expr b.result_expr = 0
  && same_citations a.result_citations b.result_citations

let summary (r : E.result) =
  Printf.sprintf "%d rewritings, %d selected, complete %b, tuples [%s], %s"
    (List.length r.rewritings) (List.length r.selected) r.complete
    (String.concat "; "
       (List.map
          (fun (tc : E.tuple_citation) ->
            R.Tuple.to_string tc.tuple ^ "=" ^ X.to_string tc.expr)
          r.tuples))
    (X.to_string r.result_expr)

(* The oracle: an engine over [db] with every cell forced up front. *)
let eager c db =
  let e =
    E.of_program ~policy:(C.Policy.make ~alt_r:c.alt_r ()) ~selection:c.selection
      ~partial:c.partial ~fallback_contained:c.fallback ~views db program
  in
  ignore (E.merged_database e);
  e

let agrees c =
  let ve =
    V.of_engine ~capacity:c.capacity @@ E.of_program
      ~policy:(C.Policy.make ~alt_r:c.alt_r ())
      ~selection:c.selection ~partial:c.partial ~fallback_contained:c.fallback
      ~views
      (database ~seed:c.seed ~families:c.families)
      program
  in
  List.iter
    (fun ops ->
      let head = R.Version_store.head_db (V.store ve) in
      match V.commit_delta ve (delta_of head ops) with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "commit failed: %s" e)
    c.commits;
  let versions = V.head ve + 1 in
  List.iter
    (fun (vi, shape, fid) ->
      let v = vi mod versions in
      let q = query shape fid in
      let got =
        match V.cite_at ve v q with
        | Ok cited -> cited.V.result
        | Error e -> QCheck.Test.fail_reportf "cite_at v%d: %s" v e
      in
      let oracle =
        eager c (R.Version_store.checkout_exn (V.store ve) v)
      in
      let want = E.cite oracle q in
      if not (same_result got want) then
        QCheck.Test.fail_reportf "v%d %s:@.lazy  %s@.eager %s" v
          (Dc_cq.Query.to_string q) (summary got) (summary want);
      let eng = Result.get_ok (V.engine_at ve v) in
      if
        not
          (R.Database.equal (E.derived_database eng) (E.derived_database oracle)
          && R.Database.equal (view_database eng) (view_database oracle)
          && R.Database.equal (E.merged_database eng) (E.merged_database oracle))
      then QCheck.Test.fail_reportf "v%d: extents differ from the eager ones" v)
    c.cites;
  true

let prop_lazy_matches_eager =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cite_at on a cold engine = eager Engine.cite"
       ~count:150
       (QCheck.make ~print:print_case gen_case)
       agrees)

(* ------------------------------------------------------------------ *)
(* What a cite forces *)

let derivations ve = snd (C.Metrics.timer (V.metrics ve) "derive")
let materializations ve = snd (C.Metrics.timer (V.metrics ve) "materialize")

let test_cites_force_only_what_they_read () =
  let ve =
    V.of_engine @@ E.of_program ~views (database ~seed:7 ~families:12) program
  in
  let d0 = derivations ve in
  let v =
    Result.get_ok
      (V.commit_delta ve
         (D.insert D.empty "Subfamily" (int_tuple [ 1; 12 ])))
  in
  ignore (Result.get_ok (V.engine_at ve v));
  Alcotest.(check int) "a new head engine derives nothing" d0 (derivations ve);
  Alcotest.(check int) "nor materializes a view" 0 (materializations ve);
  ignore (Result.get_ok (V.cite_at ve v (query 0 1)));
  Alcotest.(check int) "a base-only cite derives nothing" d0 (derivations ve);
  Alcotest.(check int) "a cite materializes no view extent" 0
    (materializations ve);
  ignore (Result.get_ok (V.cite_at ve v (query 1 1)));
  Alcotest.(check int) "a closure cite derives once" (d0 + 1) (derivations ve);
  ignore (Result.get_ok (V.cite_at ve v (query 5 2)));
  Alcotest.(check int) "and later cites reuse it" (d0 + 1) (derivations ve);
  ignore (Result.get_ok (V.cite_at ve (v - 1) (query 2 1)));
  Alcotest.(check int) "no cite materializes a view extent" 0
    (materializations ve)

let test_creation_stays_eager () =
  let db = database ~seed:3 ~families:4 in
  (match
     E.of_program ~views:[ C.Citation_view.make_exn
                             ~view:(parse "Sub(P,C) :- Subfamily(P,C)")
                             ~citations:[ parse "CS(D) :- D=\"x\"" ] () ]
       db program
   with
  | _ -> Alcotest.fail "a view named like an IDB predicate must be refused"
  | exception Invalid_argument _ -> ());
  match
    E.of_program
      ~views:
        [
          C.Citation_view.make_exn
            ~view:(parse "W(P) :- Sub(P,C,X)")
            ~citations:[ parse "CW(D) :- D=\"x\"" ] ();
        ]
      db program
  with
  | _ -> Alcotest.fail "a view misusing an IDB arity must be refused"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Once *)

let test_once_retries_after_raise () =
  let calls = ref 0 in
  let cell =
    Once.make (fun () ->
        incr calls;
        if !calls = 1 then failwith "first try" else !calls)
  in
  (match Once.force cell with
  | _ -> Alcotest.fail "the first computation raises"
  | exception Failure _ -> ());
  Alcotest.(check int) "the next force computes again" 2 (Once.force cell);
  Alcotest.(check int) "third force reads" 2 (Once.force cell);
  Alcotest.(check int) "computed twice in all" 2 !calls

(* The cell holds the only reference to [captured] through its
   computation; after a force, nothing does. *)
let[@inline never] cell_capturing probe =
  let captured = Array.make 64 1 in
  Weak.set probe 0 (Some captured);
  Once.make (fun () -> Array.length captured)

let test_once_releases_computation () =
  let probe = Weak.create 1 in
  let cell = cell_capturing probe in
  Gc.full_major ();
  Alcotest.(check bool) "held before the force" true (Weak.check probe 0);
  Alcotest.(check int) "computed" 64 (Once.force cell);
  Gc.full_major ();
  Alcotest.(check bool) "collectable after it" false (Weak.check probe 0);
  Alcotest.(check int) "the value stays" 64 (Once.force cell)

let domains = 4

(* Start [domains] domains on [f i] together, so their first forcing
   overlaps as much as the host allows. *)
let together f =
  let ready = Atomic.make 0 in
  List.init domains (fun i ->
      Domain.spawn (fun () ->
          Atomic.incr ready;
          while Atomic.get ready < domains do
            Domain.cpu_relax ()
          done;
          f i))
  |> List.map Domain.join

let test_once_concurrent_force () =
  for _ = 1 to 20 do
    let calls = Atomic.make 0 in
    let cell =
      Once.make (fun () ->
          Atomic.incr calls;
          Array.init 10_000 Fun.id)
    in
    let got = together (fun _ -> Once.force cell) in
    Alcotest.(check int) "computed once" 1 (Atomic.get calls);
    Alcotest.(check bool) "everyone read the one value" true
      (List.for_all (fun a -> a == List.hd got) got)
  done

(* ------------------------------------------------------------------ *)
(* Several domains first-force one refreshed engine *)

let race_queries = List.init (Array.length shapes) (fun s -> query s (1 + s))

let rotate i l =
  let n = List.length l in
  List.init n (fun k -> List.nth l ((k + i) mod n))

let test_domains_first_force_together () =
  let db0 = database ~seed:11 ~families:40 in
  let base = E.of_program ~views db0 program in
  for round = 1 to 8 do
    let db =
      D.apply db0
        (delta_of db0
           [ Add_family round; Add_edge (round, 2 * round); Drop_edge round ])
    in
    let want =
      let oracle = E.of_program ~views db program in
      ignore (E.merged_database oracle);
      List.map (E.cite oracle) race_queries
    in
    let eng = E.refresh base db in
    let got =
      together (fun i -> List.map (E.cite eng) (rotate i race_queries))
    in
    List.iteri
      (fun i results ->
        List.iter2
          (fun (g : E.result) w ->
            if not (same_result g w) then
              Alcotest.failf "round %d, domain %d, %s:\nlazy  %s\neager %s"
                round i (Dc_cq.Query.to_string g.query) (summary g) (summary w))
          results (rotate i want))
      got
  done

(* The server's shape: commit, then serve v1 cites of the new head
   engine and versioned cites of the head at once. *)
let test_versioned_head_first_force_together () =
  let ve =
    V.of_engine @@ E.of_program ~views (database ~seed:5 ~families:30) program
  in
  for round = 1 to 6 do
    let head = R.Version_store.head_db (V.store ve) in
    let v =
      Result.get_ok
        (V.commit_delta ve
           (delta_of head
              [ Add_edge (round, round + 3); Add_member (round, round) ]))
    in
    let want =
      let oracle =
        E.of_program ~views (R.Version_store.head_db (V.store ve)) program
      in
      ignore (E.merged_database oracle);
      List.map (E.cite oracle) race_queries
    in
    let head = Result.get_ok (V.engine_at ve v) in
    let got =
      together (fun i ->
          List.map
            (fun q ->
              if i mod 2 = 0 then E.cite head q
              else (Result.get_ok (V.cite_at ve v q)).V.result)
            (rotate i race_queries))
    in
    List.iteri
      (fun i results ->
        List.iter2
          (fun (g : E.result) w ->
            if not (same_result g w) then
              Alcotest.failf "round %d, domain %d, %s differs" round i
                (Dc_cq.Query.to_string g.query))
          results (rotate i want))
      got
  done

let suite =
  [
    Alcotest.test_case "Once retries after a raise" `Quick
      test_once_retries_after_raise;
    Alcotest.test_case "Once releases its computation" `Quick
      test_once_releases_computation;
    Alcotest.test_case "Once computes once across domains" `Quick
      test_once_concurrent_force;
    Alcotest.test_case "cites force only what they read" `Quick
      test_cites_force_only_what_they_read;
    Alcotest.test_case "creation-time validation stays eager" `Quick
      test_creation_stays_eager;
    Alcotest.test_case "domains first-force one engine together" `Quick
      test_domains_first_force_together;
    Alcotest.test_case "head engine and cite_at first-force together" `Quick
      test_versioned_head_first_force_together;
    prop_lazy_matches_eager;
  ]
