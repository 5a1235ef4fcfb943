module Vmap = Map.Make (Value)

(* A counted column: how many tuples of the extent hold each value
   (keys are {!Value.compare}-distinct, as tuples are) and how many
   values there are. *)
type column = { values : int Vmap.t; size : int }

(* The extent is a persistent set ({!Tuple.Set}); [scan_cache]
   memoizes its array rendering, [sorted_scans] its re-orderings by column lists (never
   carried: a new value sorts afresh), [card_cache] its cardinality,
   [columns] the columns counted so far ([[||]] until the first; [None]
   for one not counted) and [hash_cache] its {!Multiset_hash}.  Every constructor below goes
   through [make] so a new relation value never inherits a stale cache
   from the record it was derived from ([{ r with ... }] would copy the
   mutable fields); [insert] and [delete] then carry the cardinality,
   the counted columns and the multiset hash across one tuple when the
   parent value already knew them, so once a plan or a fixity digest
   has demanded them every later version of the relation gets them for
   O(log d) per column and changed tuple, while values nobody asks
   about (CSV loads, query results, Datalog extents) never pay.
   [of_list] builds a value from many rows at once and fills in only
   what the build itself yields: the cardinality and the scan array.
   Filling a cache from two domains at once is a benign race: both compute the
   same value from the same immutable set and one write wins
   (word-sized stores are atomic in OCaml); a column written into an
   array that another domain has just replaced is merely lost. *)
type t = {
  schema : Schema.t;
  extent : Tuple.Set.t;
  mutable scan_cache : Tuple.t array option;
  mutable sorted_scans : (int list * Tuple.t array) list;
  mutable card_cache : int;
  mutable columns : column option array;
  mutable hash_cache : Multiset_hash.t option;
}

let make schema extent =
  {
    schema;
    extent;
    scan_cache = None;
    sorted_scans = [];
    card_cache = -1;
    columns = [||];
    hash_cache = None;
  }

let empty schema = make schema Tuple.Set.empty
let schema r = r.schema
let name r = Schema.name r.schema

(* [c] with one tuple more ([sign = 1]) or less ([-1]) holding [v]
   (a deleted tuple's value is always there). *)
let count_value c ~sign v =
  let size = ref c.size in
  let values =
    Vmap.update v
      (function
        | None ->
            incr size;
            Some 1
        | Some n when n + sign = 0 ->
            decr size;
            None
        | Some n -> Some (n + sign))
      c.values
  in
  { values; size = !size }

(* [r] with one tuple more ([sign = 1]) or less ([-1]); [stored] is the
   tuple as the larger extent holds it, which is what its hash must
   count ([Tuple.compare] equates some values with different bits, such
   as [0.0] and [-0.0]). *)
let changed r extent ~sign stored =
  let r' = make r.schema extent in
  if r.card_cache >= 0 then r'.card_cache <- r.card_cache + sign;
  let columns = r.columns in
  if Array.length columns > 0 then
    r'.columns <-
      Array.mapi
        (fun i -> Option.map (fun c -> count_value c ~sign stored.(i)))
        columns;
  (match r.hash_cache with
  | Some h ->
      let th = Multiset_hash.of_tuple stored in
      r'.hash_cache <-
        Some (if sign > 0 then Multiset_hash.add h th else Multiset_hash.sub h th)
  | None -> ());
  r'

let check_conforms what schema tuple =
  if not (Schema.conforms schema tuple) then
    invalid_arg
      (Printf.sprintf "Relation.%s %s: tuple %s does not conform" what
         (Schema.name schema) (Tuple.to_string tuple))

let insert r tuple =
  check_conforms "insert" r.schema tuple;
  let extent = Tuple.Set.add tuple r.extent in
  if extent == r.extent then r else changed r extent ~sign:1 tuple

let insert_list r tuples = List.fold_left insert r tuples

let delete r tuple =
  match Tuple.Set.find_opt tuple r.extent with
  | None -> r
  | Some stored ->
      changed r (Tuple.Set.remove tuple r.extent) ~sign:(-1) stored

let mem r tuple = Tuple.Set.mem tuple r.extent
let cardinality r =
  if r.card_cache < 0 then r.card_cache <- Tuple.Set.cardinal r.extent;
  r.card_cache

let scan r =
  match r.scan_cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (Tuple.Set.elements r.extent) in
      r.scan_cache <- Some a;
      a

let compare_at positions a b =
  let rec go = function
    | [] -> 0
    | i :: rest -> (
        match Value.compare a.(i) b.(i) with 0 -> go rest | c -> c)
  in
  go positions

let scan_by r positions =
  match List.assoc_opt positions r.sorted_scans with
  | Some a -> a
  | None ->
      Dc_parallel.Metrics.(record Key.eval_scan_orders);
      let a = Array.copy (scan r) in
      Array.stable_sort (compare_at positions) a;
      r.sorted_scans <- (positions, a) :: r.sorted_scans;
      a

let tuples r = Array.to_list (scan r)

let multiset_hash r =
  match r.hash_cache with
  | Some h -> h
  | None ->
      let h = Multiset_hash.of_tuples (fun f -> Tuple.Set.iter f r.extent) in
      r.hash_cache <- Some h;
      h

(* [Value.Null] is the least value of every type, so padding the key
   with it gives the least tuple of the relation's arity that carries
   the prefix, and [to_seq_from] starts the walk there. *)
let probe_prefix r key f =
  let k = Array.length key in
  let arity = Schema.arity r.schema in
  if k > arity then
    invalid_arg
      (Printf.sprintf "Relation.probe_prefix %s: %d key columns, arity %d"
         (name r) k arity);
  let lo = Array.make arity Value.Null in
  Array.blit key 0 lo 0 k;
  let rec matches t i = i = k || (Value.equal t.(i) lo.(i) && matches t (i + 1)) in
  let rec walk seq =
    match seq () with
    | Seq.Cons (t, rest) when matches t 0 ->
        f t;
        walk rest
    | _ -> ()
  in
  walk (Tuple.Set.to_seq_from lo r.extent)

let fold f r init =
  let a = scan r in
  let acc = ref init in
  for i = 0 to Array.length a - 1 do
    acc := f a.(i) !acc
  done;
  !acc

let iter f r = Array.iter f (scan r)

(* Sorts [a] unless it is already ascending, stably, so that of each
   run of equal tuples the first given comes first; moves that one of
   each run to the front and returns how many there are. *)
let sort_uniq a =
  let n = Array.length a in
  let rec check i ~dup =
    if i >= n then if dup then `Dups else `Unique
    else
      let c = Tuple.compare a.(i - 1) a.(i) in
      if c > 0 then `Unsorted else check (i + 1) ~dup:(dup || c = 0)
  in
  match check 1 ~dup:false with
  | `Unique -> n
  | order ->
      if order = `Unsorted then Array.stable_sort Tuple.compare a;
      let k = ref 1 in
      for i = 1 to n - 1 do
        if Tuple.compare a.(!k - 1) a.(i) <> 0 then begin
          a.(!k) <- a.(i);
          incr k
        end
      done;
      !k

let of_list schema tuples =
  List.iter (check_conforms "of_list" schema) tuples;
  let a = Array.of_list tuples in
  let n = sort_uniq a in
  let r = make schema (Tuple.Set.of_sorted a n) in
  r.card_cache <- n;
  r.scan_cache <- Some (if n = Array.length a then a else Array.sub a 0 n);
  r

let count_distinct r positions =
  Dc_parallel.Metrics.(record Key.stats_column_scans);
  let seen = Tuple.Tbl.create 64 in
  iter (fun t -> Tuple.Tbl.replace seen (Tuple.project t positions) ()) r;
  Tuple.Tbl.length seen

let count_column r col =
  Dc_parallel.Metrics.(record Key.stats_column_scans);
  let one_more = function None -> Some 1 | Some n -> Some (n + 1) in
  let values = fold (fun t m -> Vmap.update t.(col) one_more m) r Vmap.empty in
  { values; size = Vmap.cardinal values }

let distinct r col =
  let arity = Schema.arity r.schema in
  if col < 0 || col >= arity then
    invalid_arg
      (Printf.sprintf "Relation.distinct %s: column %d out of range" (name r)
         col);
  let columns =
    if Array.length r.columns = arity then r.columns
    else begin
      let a = Array.make arity None in
      r.columns <- a;
      a
    end
  in
  match columns.(col) with
  | Some c -> c.size
  | None ->
      let c = count_column r col in
      columns.(col) <- Some c;
      c.size

let distinct_count r = function
  | [ col ] -> distinct r col
  | positions -> count_distinct r positions

let equal a b =
  Schema.equal a.schema b.schema && Tuple.Set.equal a.extent b.extent

let diff old_r new_r =
  ( Tuple.Set.elements_diff new_r.extent old_r.extent,
    Tuple.Set.elements_diff old_r.extent new_r.extent )

let pp ppf r =
  Format.fprintf ppf "@[<v 2>%a [%d tuples]%a@]" Schema.pp r.schema
    (cardinality r)
    (fun ppf () ->
      iter (fun t -> Format.fprintf ppf "@ %a" Tuple.pp t) r)
    ()
