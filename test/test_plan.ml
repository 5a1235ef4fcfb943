(* Differential testing of the compiled query plans: on random
   databases and random conjunctive queries — repeated variables inside
   atoms and heads, constants in heads, empty relations, [True] atoms —
   the compiled path must produce results identical to the interpreter
   oracle ([Dc_oracle.Reference]), cold and warm. *)

open Testutil
module Cq = Dc_cq
module E = Dc_cq.Eval
module Plan = Dc_cq.Plan
module R = Dc_relational
module Gen = QCheck.Gen

let q = parse

(* ------------------------------------------------------------------ *)
(* Generators.  A small universe — four predicates, values 0..4,
   variables X0..X3 — keeps join hit rates high enough that the
   interesting paths (repeated variables matching, multi-binding
   groups) are actually exercised. *)

let preds = [ ("R", 2); ("S", 2); ("T", 3); ("U", 1) ]

let int_schema name arity =
  R.Schema.make name
    (List.init arity (fun i ->
         R.Schema.attr ~ty:R.Value.TInt (Printf.sprintf "c%d" i)))

let gen_db : R.Database.t Gen.t =
 fun st ->
  List.fold_left
    (fun db (name, arity) ->
      let db = R.Database.create_relation db (int_schema name arity) in
      (* ~1 in 5 relations stays empty: a required corner *)
      let n = if Gen.int_bound 4 st = 0 then 0 else 1 + Gen.int_bound 11 st in
      let tuples =
        List.init n (fun _ ->
            R.Tuple.make
              (List.init arity (fun _ -> R.Value.Int (Gen.int_bound 4 st))))
      in
      R.Database.insert_list db name tuples)
    R.Database.empty preds

let gen_var st = Printf.sprintf "X%d" (Gen.int_bound 3 st)
let gen_const st = R.Value.Int (Gen.int_bound 4 st)

let gen_query_upto max_atoms : Cq.Query.t Gen.t =
 fun st ->
  let natoms = 1 + Gen.int_bound (max_atoms - 1) st in
  let atom _ =
    if Gen.int_bound 9 st = 0 then Cq.Atom.make "True" []
    else
      let name, arity = List.nth preds (Gen.int_bound (List.length preds - 1) st) in
      Cq.Atom.make name
        (List.init arity (fun _ ->
             if Gen.int_bound 9 st < 7 then Cq.Term.Var (gen_var st)
             else Cq.Term.Const (gen_const st)))
  in
  let body = List.init natoms atom in
  let vars = List.concat_map Cq.Atom.var_list body in
  let head =
    (* head variables drawn from the body (safety); repeats and
       constants allowed — both have dedicated compiled paths *)
    List.init
      (1 + Gen.int_bound 2 st)
      (fun _ ->
        match vars with
        | [] -> Cq.Term.Const (gen_const st)
        | _ ->
            if Gen.int_bound 9 st < 8 then
              Cq.Term.Var (List.nth vars (Gen.int_bound (List.length vars - 1) st))
            else Cq.Term.Const (gen_const st))
  in
  Cq.Query.make_exn ~name:"Q" ~head ~body ()

let gen_query = gen_query_upto 3

let arbitrary_upto max_atoms =
  QCheck.make
    ~print:(fun (db, query) ->
      Format.asprintf "%s@.under:@.%a" (Cq.Query.to_string query)
        (Format.pp_print_list (fun ppf name ->
             R.Relation.pp ppf (R.Database.relation_exn db name)))
        (List.map fst preds))
    (Gen.pair gen_db (gen_query_upto max_atoms))

let arbitrary = arbitrary_upto 3

(* ------------------------------------------------------------------ *)
(* Equivalence oracle. *)

let sort_bindings = List.sort E.Binding.compare
let same_bindings a b = List.equal E.Binding.equal (sort_bindings a) (sort_bindings b)

let same_run a b =
  List.equal
    (fun (t1, bs1) (t2, bs2) -> R.Tuple.equal t1 t2 && same_bindings bs1 bs2)
    a b

let equivalent db query =
  let cache = E.make_cache () in
  let reference = Dc_oracle.Reference.bindings db query in
  same_bindings reference (E.bindings ~cache db query)
  && same_run (Dc_oracle.Reference.run db query) (E.run ~cache db query)
  && R.Relation.equal (Dc_oracle.Reference.result db query) (E.result ~cache db query)
  && Bool.equal (Dc_oracle.Reference.holds db query) (E.holds ~cache db query)
  (* warm path: the second evaluation runs the cached plan *)
  && same_bindings reference (E.bindings ~cache db query)

let prop_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"compiled = reference on random queries" ~count:500
       arbitrary
       (fun (db, query) -> equivalent db query))

(* [Eval.result] collects its head tuples and builds the relation once;
   the oracle inserts each emission as the plan makes it.  A relation
   of floats that compare equal with different bits pins which emission
   is kept: the first, on both sides. *)
let per_emission_result db query =
  let plan =
    Cq.Plan.compile
      ~relation:(R.Database.relation_exn db)
      ~index:(fun p positions -> R.Index.build (R.Database.relation_exn db p) positions)
      db query
  in
  let rel =
    ref (R.Relation.empty (E.head_schema (Cq.Query.name query) (Cq.Query.head query)))
  in
  Cq.Plan.execute plan (fun regs ->
      rel := R.Relation.insert !rel (Cq.Plan.head_tuple plan regs));
  !rel

let prop_result_is_per_emission_insert =
  let floats =
    let schema =
      R.Schema.make "F" [ R.Schema.attr "A"; R.Schema.attr "B" ]
    in
    Gen.(
      list_size (int_range 0 12)
        (pair (oneofl R.Value.[ Float 0.0; Float (-0.0); Int 1 ])
           (oneofl R.Value.[ Float (-0.0); Float 0.0; Int 2 ]))
      >|= fun rows ->
      R.Database.add_relation R.Database.empty
        (R.Relation.insert_list (R.Relation.empty schema)
           (List.map (fun (a, b) -> [| a; b |]) rows)))
  in
  let float_queries =
    List.map q
      [ "Q(X) :- F(X,Y)"; "Q(Y,X) :- F(X,Y)"; "Q(Y) :- F(X,Y), F(Y,Z)"; "Q(X,Z) :- F(X,Y), F(Z,Y)" ]
  in
  let gen =
    Gen.(
      frequency
        [
          (3, pair gen_db gen_query);
          (1, pair floats (oneofl float_queries));
        ])
  in
  let print (db, query) =
    Format.asprintf "%s@.under:@.%a" (Cq.Query.to_string query)
      (Format.pp_print_list R.Relation.pp)
      (R.Database.relations db)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"result = per-emission insert" ~count:300
       (QCheck.make ~print gen)
       (fun (db, query) ->
         same_stored (E.result db query) (per_emission_result db query)))

(* ------------------------------------------------------------------ *)
(* Directed corners (also covered probabilistically above, but pinned
   here so a shrink-resistant failure stays readable). *)

let check_equiv name db query =
  Alcotest.(check bool) name true (equivalent db query)

let test_directed_corners () =
  let db = rs_db () in
  check_equiv "repeated variable in atom" db (q "Q(X) :- R(X,X)");
  check_equiv "repeated variable in head" db (q "Q(X,X,Y) :- R(X,Y)");
  check_equiv "constant in head" db (q "Q(X,7) :- R(X,Y)");
  check_equiv "constant selection" db (q "Q(X) :- R(X,3)");
  check_equiv "transitive join" db (q "Q(X,Z) :- R(X,Y), R(Y,Z)");
  check_equiv "cartesian product" db (q "Q(X,Y) :- R(X,A), S(Y,B)");
  check_equiv "triangle with shared vars" db
    (q "Q(X) :- R(X,Y), R(Y,Z), R(Z,X)");
  check_equiv "truth atom only" db (q "CV(D) :- D=\"blurb\"");
  let empty_db =
    R.Database.create_relation db (int_schema "Nothing" 2)
  in
  check_equiv "empty relation scan" empty_db (q "Q(X,Y) :- Nothing(X,Y)");
  check_equiv "join against empty" empty_db
    (q "Q(X) :- R(X,Y), Nothing(Y,Z)")

let test_unknown_relation_eager () =
  (* compilation resolves every body predicate up front, so the error
     surfaces even when an earlier atom already has no matches *)
  let db = rs_db () in
  Alcotest.(check bool) "raises before producing bindings" true
    (try
       ignore (E.bindings db (q "Q(X) :- R(X,99), Nope(X)"));
       false
     with E.Unknown_relation "Nope" -> true)

(* ------------------------------------------------------------------ *)
(* Plan-cache behaviour through the public Eval API. *)

let test_cache_invalidation_on_update () =
  let db = rs_db () in
  let cache = E.make_cache () in
  let query = q "Q(X,C) :- R(X,Z), S(Z,C)" in
  let r1 = E.result ~cache db query in
  Alcotest.(check int) "cold answer" 3 (R.Relation.cardinality r1);
  (* same cache, evolved database: the cached plan captured the old
     relation values and must transparently recompile *)
  let db' = R.Database.insert db "R" (int_tuple [ 7; 2 ]) in
  let r2 = E.result ~cache db' query in
  Alcotest.(check int) "post-update answer" 4 (R.Relation.cardinality r2);
  Alcotest.(check bool) "agrees with reference" true
    (R.Relation.equal r2 (Dc_oracle.Reference.result db' query));
  (* and the old database still answers through the same cache *)
  Alcotest.(check int) "old value still served" 3
    (R.Relation.cardinality (E.result ~cache db query))

let test_cache_capacity_bound () =
  (* distinct pinned constants (the incremental maintainer's pattern)
     must not grow the plan table without bound or corrupt results *)
  let db = rs_db () in
  let cache = E.make_cache () in
  let reference = Dc_oracle.Reference.result db (q "Q(X) :- R(X,3)") in
  for b = 0 to 1100 do
    let query =
      Cq.Query.make_exn ~name:"Q"
        ~head:[ Cq.Term.Var "X" ]
        ~body:[ Cq.Atom.make "R" [ Cq.Term.Var "X"; Cq.Term.Const (int (b mod 5)) ] ]
        ()
    in
    ignore (E.result ~cache db query)
  done;
  Alcotest.(check bool) "still correct after overflow" true
    (R.Relation.equal reference (E.result ~cache db (q "Q(X) :- R(X,3)")))

(* ------------------------------------------------------------------ *)
(* The compiler itself: cost-based order and plan shape. *)

let test_cost_based_order () =
  (* Big R (25 tuples), tiny S (2): the compiler must start from S and
     probe R through the bound join column, regardless of body order. *)
  let db =
    R.Database.empty
    |> fun db -> R.Database.create_relation db (int_schema "R" 2)
    |> fun db -> R.Database.create_relation db (int_schema "S" 2)
    |> fun db ->
    R.Database.insert_list db "R"
      (List.init 25 (fun i -> int_tuple [ i; i mod 5 ]))
    |> fun db -> R.Database.insert_list db "S" [ int_tuple [ 0; 0 ]; int_tuple [ 1; 1 ] ]
  in
  let compile query =
    Plan.compile
      ~relation:(fun p -> R.Database.relation_exn db p)
      ~index:(fun p positions ->
        R.Index.build (R.Database.relation_exn db p) positions)
      db query
  in
  let plan = compile (q "Q(X,Y) :- R(X,Z), S(Z,Y)") in
  Alcotest.(check (list string)) "selective atom first" [ "S"; "R" ]
    (Plan.atom_order plan);
  Alcotest.(check int) "one slot per body variable" 3
    (Array.length (Plan.slots plan));
  Alcotest.(check bool) "valid against its database" true (Plan.valid plan db);
  let db' = R.Database.insert db "R" (int_tuple [ 99; 99 ]) in
  Alcotest.(check bool) "invalid after evolution" false (Plan.valid plan db');
  (* pp is a smoke test: join order with key columns *)
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let rendered = Format.asprintf "%a" Plan.pp plan in
  Alcotest.(check bool) "pp mentions both atoms" true
    (contains rendered "S" && contains rendered "R")

(* ------------------------------------------------------------------ *)
(* Join order.  The oracle is the greedy ordering as it stood before the
   last remaining atom was placed without costing, copied here verbatim
   but for reading the statistics from the relation values. *)

module Sset = Set.Make (String)

let oracle_atom_cost db bound atom =
  let pred = Cq.Atom.pred atom in
  let card = float_of_int (R.Stats.cardinality db pred) in
  let arity_known =
    match R.Database.relation db pred with
    | Some rel -> R.Schema.arity (R.Relation.schema rel)
    | None -> 0
  in
  let rec go i sel any_bound = function
    | [] -> (sel, any_bound)
    | term :: rest ->
        let bound_here =
          match term with
          | Cq.Term.Const _ -> true
          | Cq.Term.Var v -> Sset.mem v bound
        in
        if bound_here then
          let sel =
            if i < arity_known then sel *. R.Stats.selectivity db pred i
            else sel
          in
          go (i + 1) sel true rest
        else go (i + 1) sel any_bound rest
  in
  let sel, any_bound = go 0 1.0 false (Cq.Atom.args atom) in
  if any_bound then card *. sel else card

let oracle_order_atoms db body =
  let rec go bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
        let best, _ =
          List.fold_left
            (fun (best, best_cost) atom ->
              let c = oracle_atom_cost db bound atom in
              match best with
              | None -> (Some atom, c)
              | Some _ -> if c < best_cost then (Some atom, c) else (best, best_cost))
            (None, infinity) remaining
        in
        let best = Option.get best in
        let remaining = List.filter (fun a -> not (a == best)) remaining in
        let bound =
          List.fold_left (fun s v -> Sset.add v s) bound (Cq.Atom.var_list best)
        in
        go bound remaining (best :: acc)
  in
  go Sset.empty body []

let prop_atom_order_unchanged =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"atom order = the costed-to-the-end oracle"
       ~count:500 (arbitrary_upto 5)
       (fun (db, query) ->
         let body =
           List.filter
             (fun a -> not (Cq.Atom.pred a = "True" && Cq.Atom.args a = []))
             (Cq.Query.body query)
         in
         let plan =
           Plan.compile
             ~relation:(fun p -> R.Database.relation_exn db p)
             ~index:(fun p positions ->
               R.Index.build (R.Database.relation_exn db p) positions)
             db query
         in
         List.equal String.equal (Plan.atom_order plan)
           (List.map Cq.Atom.pred (oracle_order_atoms db body))))

(* ------------------------------------------------------------------ *)
(* Grouping in head order.  A plan whose first step scans an atom that
   binds the head's leading terms emits in head-prefix order, and [run]
   and [run_projected] group each block of equal prefix as it arrives,
   sorting only the blocks where an emission came in smaller than the
   one before.  The oracle is the grouping as it stood before: one sort
   of every (tuple, payload) pair over the interpreter's bindings, then
   adjacent runs collapse. *)

let oracle_group compare pairs =
  let sorted =
    List.sort_uniq
      (fun (t1, p1) (t2, p2) ->
        match R.Tuple.compare t1 t2 with 0 -> compare p1 p2 | c -> c)
      pairs
  in
  let rec group acc = function
    | [] -> List.rev acc
    | (t, p) :: rest ->
        let rec same ps = function
          | (t', p') :: rest when R.Tuple.equal t t' -> same (p' :: ps) rest
          | rest -> (List.rev ps, rest)
        in
        let ps, rest = same [ p ] rest in
        group ((t, ps) :: acc) rest
  in
  group [] sorted

(* Values 0..3 in up to 16 tuples: outer tuples often share the value a
   head prefix reads, so a block spans several outer tuples and the
   inner matches of a later one may come in below those of an earlier
   one; about one relation in six is empty.  [D] is the inner relation
   probed on its first column: 16 to 48 tuples over a wider second
   column, so its table (bought at one probe per 8 tuples) is often
   bought partway through one evaluation, after probes that descended
   the extent. *)
let ordered_preds = [ ("A", 3); ("B", 2); ("C", 2) ]
let inner = ("D", 2)

let gen_ordered_db : R.Database.t Gen.t =
 fun st ->
  let db =
    List.fold_left
      (fun db (name, arity) ->
        let db = R.Database.create_relation db (int_schema name arity) in
        let n = if Gen.int_bound 5 st = 0 then 0 else 1 + Gen.int_bound 15 st in
        let value _ = R.Value.Int (Gen.int_bound 3 st) in
        R.Database.insert_list db name
          (List.init n (fun _ -> R.Tuple.make (List.init arity value))))
      R.Database.empty ordered_preds
  in
  let name, arity = inner in
  let db = R.Database.create_relation db (int_schema name arity) in
  R.Database.insert_list db name
    (List.init (16 + Gen.int_bound 32 st) (fun _ ->
         R.Tuple.make
           R.Value.[ Int (Gen.int_bound 3 st); Int (Gen.int_bound 15 st) ]))

(* A query biased toward scan-first plans whose head leads with a
   variable the first atom binds past its first column, paired with a
   random list of body variables to project on.  Later atoms carry an
   occasional constant and bind head variables of their own; one in
   three queries also probes [D] on a variable of the outer atom.
   Heads repeat variables and carry constants, sometimes in front. *)
let gen_ordered_case : (Cq.Query.t * string list) Gen.t =
 fun st ->
  let pick l = List.nth l (Gen.int_bound (List.length l - 1) st) in
  let var () = Cq.Term.Var (Printf.sprintf "X%d" (Gen.int_bound 4 st)) in
  let const () = Cq.Term.Const (R.Value.Int (Gen.int_bound 3 st)) in
  let atom ~consts =
    let name, arity = pick ordered_preds in
    Cq.Atom.make name
      (List.init arity (fun _ ->
           if consts && Gen.int_bound 9 st = 0 then const () else var ()))
  in
  let outer = atom ~consts:false in
  let probe_inner =
    if Gen.int_bound 2 st = 0 then
      [ Cq.Atom.make (fst inner) [ pick (Cq.Atom.args outer); var () ] ]
    else []
  in
  let body =
    (outer :: probe_inner)
    @ List.init (Gen.int_bound 2 st) (fun _ -> atom ~consts:true)
  in
  let vars = List.sort_uniq String.compare (List.concat_map Cq.Atom.var_list body) in
  let body_var () = Cq.Term.Var (pick vars) in
  let lead =
    (if Gen.int_bound 5 st = 0 then [ const () ] else [])
    @
    match Cq.Atom.args outer with
    | _ :: (_ :: _ as later) when Gen.int_bound 3 st > 0 -> [ pick later ]
    | _ -> []
  in
  let rest =
    List.init (Gen.int_bound 3 st) (fun _ ->
        match Gen.int_bound 9 st with
        | 0 -> const ()
        | 1 when lead <> [] -> pick lead
        | _ -> body_var ())
  in
  let head = match lead @ rest with [] -> [ body_var () ] | h -> h in
  let projected = Gen.shuffle_l (List.filter (fun _ -> Gen.bool st) vars) st in
  (Cq.Query.make_exn ~name:"Q" ~head ~body (), projected)

let arbitrary_ordered =
  QCheck.make
    ~print:(fun (db, (query, vars)) ->
      Format.asprintf "%s on [%s]@.under:@.%a" (Cq.Query.to_string query)
        (String.concat "," vars)
        (Format.pp_print_list (fun ppf name ->
             R.Relation.pp ppf (R.Database.relation_exn db name)))
        (List.map fst (ordered_preds @ [ inner ])))
    (Gen.pair gen_ordered_db gen_ordered_case)

let same_groups equal a b =
  List.equal
    (fun (t1, ps1) (t2, ps2) -> R.Tuple.equal t1 t2 && List.equal equal ps1 ps2)
    a b

let block_sorts m = Dc_parallel.Metrics.(count m Key.eval_block_sorts)

(* [run_projected] and [run], cold and then warm, against the oracle,
   recording into [m].  The cold [run_projected] probes a fresh index,
   descending the extent until it buys the table; the warm one probes
   the table throughout.  The two probe paths answer in one order, so
   both passes see the same emissions and sort the same blocks: that is
   checked too.  Returns the verdict and the blocks the cold
   [run_projected] sorted. *)
let grouped_as_oracle m db query vars =
  let reference = Dc_oracle.Reference.bindings db query in
  let answer b = E.tuple_of_binding query b in
  let projected =
    oracle_group R.Tuple.compare
      (List.map
         (fun b -> (answer b, Array.of_list (E.Binding.values b vars)))
         reference)
  in
  let full =
    oracle_group E.Binding.compare (List.map (fun b -> (answer b, b)) reference)
  in
  let cache = E.make_cache () in
  let check () =
    let before = block_sorts m in
    let ok =
      same_groups R.Tuple.equal projected (E.run_projected ~cache db query vars)
    in
    let sorts = block_sorts m - before in
    (ok && same_groups E.Binding.equal full (E.run ~cache db query), sorts)
  in
  let cold_ok, cold_sorts = check () in
  let warm_ok, warm_sorts = check () in
  (cold_ok && warm_ok && cold_sorts = warm_sorts, cold_sorts)

(* Whether a cold evaluation of [query] buys a prefix table partway
   through: the plan as [Eval] compiles it, run once over fresh indexes,
   leaves a table on a prefix index of at least 16 tuples, whose
   threshold (one probe per 8 tuples) let at least its first probe
   descend the extent. *)
let switches_probe_path db query =
  let built = ref [] in
  let plan =
    Plan.compile
      ~relation:(fun p -> R.Database.relation_exn db p)
      ~index:(fun p positions ->
        let rel = R.Database.relation_exn db p in
        let idx = R.Index.build rel positions in
        if positions = List.init (List.length positions) Fun.id then
          built := (rel, idx) :: !built;
        idx)
      db query
  in
  Plan.execute ~head_order:true plan ignore;
  List.exists
    (fun (rel, idx) ->
      R.Relation.cardinality rel >= 16 && R.Index.has_table idx)
    !built

(* Runs the property, counting the cases that iterated a sorted copy of
   their outer relation, that sorted a block, that answered without
   sorting one, and that switched probe paths partway through, so the
   generator's biases are asserted rather than hoped for. *)
let test_ordered_grouping () =
  let sorted_outer = ref 0 and sorted_block = ref 0 and sorted_none = ref 0 in
  let switched = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |])
    (QCheck.Test.make ~name:"run, run_projected = one-sort oracle" ~count:1000
       arbitrary_ordered
       (fun (db, (query, vars)) ->
         let m = Dc_parallel.Metrics.create () in
         let ok, sorts =
           Dc_parallel.Metrics.with_sink m (fun () ->
               grouped_as_oracle m db query vars)
         in
         if Dc_parallel.Metrics.(count m Key.eval_scan_orders) > 0 then
           incr sorted_outer;
         if sorts > 0 then incr sorted_block
         else if E.holds db query then incr sorted_none;
         if switches_probe_path db query then incr switched;
         ok));
  let at_least what n min =
    Alcotest.(check bool)
      (Printf.sprintf "%d of 1000 cases %s" n what)
      true (n >= min)
  in
  at_least "scanned a sorted outer" !sorted_outer 200;
  at_least "sorted a block" !sorted_block 100;
  at_least "answered without sorting a block" !sorted_none 200;
  at_least "bought a prefix table partway through" !switched 100

(* The fold itself, against the same oracle: the answers and
   projections it hands on, in the order it hands them on.  The plan as
   [Eval] compiles it (fresh indexes give the same join order) tells
   the cases apart, and the generator's reach is asserted: plans of
   head prefix 0 (one block), blocks sorted from several runs, bindings
   that repeat an (answer, projection) pair, and projections on two
   variables or more. *)
let test_fold_as_oracle () =
  let prefix0 = ref 0 and sorted = ref 0 and duplicates = ref 0 in
  let multi = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 11 |])
    (QCheck.Test.make ~name:"fold_projected = one-sort oracle" ~count:1000
       arbitrary_ordered
       (fun (db, (query, vars)) ->
         let pairs =
           List.map
             (fun b ->
               ( E.tuple_of_binding query b,
                 Array.of_list (E.Binding.values b vars) ))
             (Dc_oracle.Reference.bindings db query)
         in
         let want = oracle_group R.Tuple.compare pairs in
         let m = Dc_parallel.Metrics.create () in
         let got =
           Dc_parallel.Metrics.with_sink m (fun () ->
               List.rev
                 (E.fold_projected db query vars
                    (fun t ps acc -> (t, ps) :: acc)
                    []))
         in
         let plan =
           Plan.compile
             ~relation:(fun p -> R.Database.relation_exn db p)
             ~index:(fun p positions ->
               R.Index.build (R.Database.relation_exn db p) positions)
             db query
         in
         if want <> [] then begin
           if Plan.head_prefix plan = 0 then incr prefix0;
           if block_sorts m > 0 then incr sorted;
           if
             List.length pairs
             > List.fold_left (fun n (_, ps) -> n + List.length ps) 0 want
           then incr duplicates;
           if List.length vars >= 2 then incr multi
         end;
         same_groups R.Tuple.equal want got));
  let at_least what n min =
    Alcotest.(check bool)
      (Printf.sprintf "%d of 1000 cases %s" n what)
      true (n >= min)
  in
  at_least "ran a plan of head prefix 0" !prefix0 50;
  at_least "sorted a block" !sorted 100;
  at_least "repeated an (answer, projection) pair" !duplicates 200;
  at_least "projected on two variables or more" !multi 200

(* The fold hands an answer on while the join still runs.  [A] holds
   0..63 and [B] eight rows under each of them, so the plan scans [A]
   in head order (prefix 1) and probes [B] on its first column, once
   per [A] row; [B]'s index buys its table at the 64th probe (one per
   eight of its 512 rows), at [A]'s last row.  A callback that raises
   [Exit] on the first answer stops the plan after two probes, so no
   table is bought; the full fold, on the same cache, buys it. *)
let test_fold_streams () =
  let db =
    let db =
      R.Database.create_relation
        (R.Database.create_relation R.Database.empty (int_schema "A" 1))
        (int_schema "B" 2)
    in
    let db =
      R.Database.insert_list db "A"
        (List.init 64 (fun x -> R.Tuple.make [ R.Value.Int x ]))
    in
    R.Database.insert_list db "B"
      (List.init 512 (fun i ->
           R.Tuple.make R.Value.[ Int (i / 8); Int (i mod 8) ]))
  in
  let query = parse "Q(X) :- A(X), B(X,Y)" in
  let plan =
    Plan.compile
      ~relation:(fun p -> R.Database.relation_exn db p)
      ~index:(fun p positions ->
        R.Index.build (R.Database.relation_exn db p) positions)
      db query
  in
  Alcotest.(check (list string)) "A scanned first" [ "A"; "B" ]
    (Plan.atom_order plan);
  Alcotest.(check int) "head prefix" 1 (Plan.head_prefix plan);
  let m = Dc_parallel.Metrics.create () in
  let builds () = Dc_parallel.Metrics.(count m Key.eval_index_builds) in
  let cache = E.make_cache () in
  Dc_parallel.Metrics.with_sink m @@ fun () ->
  let handed = ref [] in
  (match
     E.fold_projected ~cache db query [] (fun t _ () ->
         handed := t :: !handed;
         raise Exit) ()
   with
  | () -> Alcotest.fail "the callback's Exit was swallowed"
  | exception Exit -> ());
  Alcotest.(check (list string)) "one answer handed on" [ "(0)" ]
    (List.map R.Tuple.to_string !handed);
  Alcotest.(check int) "stopped before B's last probe" 0 (builds ());
  let answers = E.run_projected ~cache db query [] in
  Alcotest.(check int) "the full fold answers every A row" 64
    (List.length answers);
  Alcotest.(check int) "and reaches B's last probe" 1 (builds ())

let suite =
  [
    prop_equivalence;
    prop_result_is_per_emission_insert;
    prop_atom_order_unchanged;
    Alcotest.test_case "directed corners" `Quick test_directed_corners;
    Alcotest.test_case "unknown relation resolved eagerly" `Quick
      test_unknown_relation_eager;
    Alcotest.test_case "plan cache invalidates on update" `Quick
      test_cache_invalidation_on_update;
    Alcotest.test_case "plan cache capacity bound" `Quick
      test_cache_capacity_bound;
    Alcotest.test_case "cost-based join order" `Quick test_cost_based_order;
    Alcotest.test_case "grouping in head order = one-sort oracle" `Quick
      test_ordered_grouping;
    Alcotest.test_case "fold = one-sort oracle" `Quick test_fold_as_oracle;
    Alcotest.test_case "fold hands answers on mid-join" `Quick
      test_fold_streams;
  ]
