(* Lazy prefix indexes against the eager hash index they replace.

   [Eager] is the index every probe used to go through: a hash table
   built at once from the extent, keyed on the projection, whose
   [find_all] answers most recent binding first; read back to front,
   that is ascending tuple order, the order {!R.Index.lookup_key}
   promises.  On random relations, a lazy {!R.Index} must answer every
   probe with the same tuples in the same order — before its probe
   count reaches the build threshold (range descents of the extent) and
   after (its own table) — for prefix and non-prefix position lists
   alike. *)

module R = Dc_relational

module Eager = struct
  type t = R.Tuple.t R.Tuple.Tbl.t

  let build r positions : t =
    let table = R.Tuple.Tbl.create (max 16 (R.Relation.cardinality r)) in
    let arr = R.Relation.scan r in
    for i = 0 to Array.length arr - 1 do
      let tuple = arr.(i) in
      R.Tuple.Tbl.add table (R.Tuple.project tuple positions) tuple
    done;
    table

  let lookup_key (idx : t) key = List.rev (R.Tuple.Tbl.find_all idx key)
end

(* A small value pool, so keys repeat heavily; [Int 1], [Str "1"] and
   [Null] share a [TAny] column and compare unequal. *)
let pool =
  R.Value.
    [|
      Int 1; Str "1"; Null; Int 0; Int 2; Str "a"; Str ""; Float 1.0;
      Float (-0.5); Bool true; Bool false; Timestamp 1;
    |]

let schema arity =
  R.Schema.make "T"
    (List.init arity (fun i ->
         R.Schema.attr ~ty:R.Value.TAny (Printf.sprintf "C%d" i)))

type case = {
  arity : int;
  tuples : R.Tuple.t list;
  positions : int list;
  keys : R.Value.t array list;
}

let gen_case =
  let open QCheck.Gen in
  let value width = map (fun i -> pool.(i)) (int_bound (width - 1)) in
  int_range 1 4 >>= fun arity ->
  (* a narrow value range on some cases makes long runs of equal keys *)
  oneofl [ 2; 3; Array.length pool ] >>= fun width ->
  oneof [ return 0; int_range 1 12; int_range 20 160 ] >>= fun n ->
  list_repeat n (array_repeat arity (value width)) >>= fun tuples ->
  let all = List.init arity Fun.id in
  oneof
    [
      (* a prefix, possibly empty *)
      map (fun k -> List.filteri (fun i _ -> i < k) all) (int_bound arity);
      (* any ascending subset: mostly not a prefix *)
      map
        (fun mask -> List.filter (fun i -> mask land (1 lsl i) <> 0) all)
        (int_bound ((1 lsl arity) - 1));
    ]
  >>= fun positions ->
  let width_k = List.length positions in
  let from_tuples =
    if tuples = [] then return [||]
    else map (fun t -> R.Tuple.project t positions) (oneofl tuples)
  in
  let key = oneof [ from_tuples; array_repeat width_k (value width) ] in
  (* enough probes to cross any build threshold (card / 8) *)
  list_repeat ((n / 4) + 8) key >>= fun keys ->
  return { arity; tuples; positions; keys }

let print_case c =
  let pp_tuples ts = String.concat " " (List.map R.Tuple.to_string ts) in
  Printf.sprintf "arity %d, positions [%s], tuples %s, keys %s" c.arity
    (String.concat ";" (List.map string_of_int c.positions))
    (pp_tuples c.tuples)
    (pp_tuples (List.map R.Tuple.of_array c.keys))

let same a b = List.equal (fun x y -> R.Tuple.compare x y = 0) a b

let relation_of c = R.Relation.of_list (schema c.arity) c.tuples

let test_lazy_equals_eager =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"lazy index = eager index, probe by probe"
       ~count:400
       (QCheck.make ~print:print_case gen_case)
       (fun c ->
         let rel = relation_of c in
         let eager = Eager.build rel c.positions in
         let idx = R.Index.build rel c.positions in
         let probe key =
           let want = Eager.lookup_key eager key in
           same want (R.Index.lookup_key idx key)
         in
         List.for_all probe c.keys
         && (R.Index.build_table idx;
             List.for_all probe c.keys)))

(* Prefix indexes build nothing until the threshold, then a table. *)
let test_threshold () =
  let rel =
    R.Relation.of_list (schema 2)
      (List.init 80 (fun i -> R.Tuple.make R.Value.[ Int (i mod 10); Int i ]))
  in
  let m = Dc_parallel.Metrics.create () in
  Dc_parallel.Metrics.with_sink m @@ fun () ->
  let builds () = Dc_parallel.Metrics.(count m Key.eval_index_builds) in
  let prefix = R.Index.build rel [ 0 ] in
  Alcotest.(check bool) "prefix: no table at build" false
    (R.Index.has_table prefix);
  let eager = Eager.build rel [ 0 ] in
  let probe k =
    let key = [| R.Value.Int k |] in
    Alcotest.(check bool)
      (Printf.sprintf "probe %d answers as eager" k)
      true
      (same (Eager.lookup_key eager key) (R.Index.lookup_key prefix key))
  in
  for k = 0 to 8 do
    probe k
  done;
  Alcotest.(check int) "no build below the threshold" 0 (builds ());
  probe 9;
  Alcotest.(check int) "built at the threshold (card / 8 probes)" 1 (builds ());
  Alcotest.(check bool) "table published" true (R.Index.has_table prefix);
  for k = 0 to 10 do
    probe k
  done;
  Alcotest.(check int) "built once" 1 (builds ());
  let non_prefix = R.Index.build rel [ 1 ] in
  Alcotest.(check bool) "non-prefix: built eagerly" true
    (R.Index.has_table non_prefix);
  Alcotest.(check int) "eager build reported" 2 (builds ())

(* One index probed from four domains at once, across the threshold:
   every answer must still equal the eager one, and the table is built
   exactly once. *)
let test_four_domains () =
  let rel =
    R.Relation.of_list (schema 3)
      (List.init 2000 (fun i ->
           R.Tuple.make
             R.Value.[ Int (i mod 97); Str (string_of_int (i mod 7)); Int i ]))
  in
  List.iter
    (fun positions ->
      let eager = Eager.build rel positions in
      (* scopes never cross domains: every domain that may build the
         table (this one, eagerly, for a non-prefix) opens its own [m] *)
      let m = Dc_parallel.Metrics.create () in
      let idx =
        Dc_parallel.Metrics.with_sink m (fun () -> R.Index.build rel positions)
      in
      let keys =
        Array.of_list
          (List.map (fun t -> R.Tuple.project t positions) (R.Relation.tuples rel))
      in
      let worker d () =
        let ok = ref true in
        for round = 0 to 1 do
          Array.iteri
            (fun i _ ->
              let key = keys.((i * (d + 3) + round) mod Array.length keys) in
              if not (same (Eager.lookup_key eager key) (R.Index.lookup_key idx key))
              then ok := false)
            keys
        done;
        !ok
      in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () -> Dc_parallel.Metrics.with_sink m (worker d)))
      in
      let results = List.map Domain.join domains in
      Alcotest.(check (list bool))
        (Printf.sprintf "every domain's answers equal eager on [%s]"
           (String.concat ";" (List.map string_of_int positions)))
        [ true; true; true; true ] results;
      Alcotest.(check int) "one table built" 1
        Dc_parallel.Metrics.(count m Key.eval_index_builds))
    [ [ 0 ]; [ 0; 1 ]; [ 1 ] ]

let suite =
  [
    test_lazy_equals_eager;
    Alcotest.test_case "prefix index builds at the threshold" `Quick
      test_threshold;
    Alcotest.test_case "one index probed from 4 domains" `Quick
      test_four_domains;
  ]
