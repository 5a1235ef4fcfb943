(* The extent is a persistent set; [scan_cache] memoizes its array
   rendering, [card_cache] its cardinality and [distinct_cache] its
   per-column distinct counts ([-1]: not counted yet).  Every
   constructor below goes through [make] so a new relation value never
   inherits a stale cache from the record it was derived from
   ([{ r with ... }] would copy the mutable fields).  Filling a cache
   from two domains at once is a benign race: both compute the same
   value from the same immutable set and one write wins (word-sized
   stores are atomic in OCaml); a count written into a distinct array
   that another domain has just replaced is merely lost. *)
type t = {
  schema : Schema.t;
  extent : Tuple.Set.t;
  mutable scan_cache : Tuple.t array option;
  mutable card_cache : int;
  mutable distinct_cache : int array;
}

let make schema extent =
  { schema; extent; scan_cache = None; card_cache = -1; distinct_cache = [||] }
let empty schema = make schema Tuple.Set.empty
let schema r = r.schema
let name r = Schema.name r.schema

let insert r tuple =
  if not (Schema.conforms r.schema tuple) then
    invalid_arg
      (Printf.sprintf "Relation.insert %s: tuple %s does not conform"
         (name r) (Tuple.to_string tuple))
  else make r.schema (Tuple.Set.add tuple r.extent)

let insert_list r tuples = List.fold_left insert r tuples
let delete r tuple = make r.schema (Tuple.Set.remove tuple r.extent)
let mem r tuple = Tuple.Set.mem tuple r.extent
let cardinality r =
  if r.card_cache < 0 then r.card_cache <- Tuple.Set.cardinal r.extent;
  r.card_cache
let is_empty r = Tuple.Set.is_empty r.extent

let scan r =
  match r.scan_cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (Tuple.Set.elements r.extent) in
      r.scan_cache <- Some a;
      a

let tuples r = Array.to_list (scan r)

let fold f r init =
  let a = scan r in
  let acc = ref init in
  for i = 0 to Array.length a - 1 do
    acc := f a.(i) !acc
  done;
  !acc

let iter f r = Array.iter f (scan r)
let filter p r = make r.schema (Tuple.Set.filter p r.extent)
let of_list schema tuples = insert_list (empty schema) tuples

let count_distinct r positions =
  let seen = Tuple.Tbl.create 64 in
  iter (fun t -> Tuple.Tbl.replace seen (Tuple.project t positions) ()) r;
  Tuple.Tbl.length seen

let distinct r col =
  let arity = Schema.arity r.schema in
  if col < 0 || col >= arity then
    invalid_arg
      (Printf.sprintf "Relation.distinct %s: column %d out of range" (name r)
         col);
  let counts =
    if Array.length r.distinct_cache = arity then r.distinct_cache
    else begin
      let a = Array.make arity (-1) in
      r.distinct_cache <- a;
      a
    end
  in
  if counts.(col) < 0 then counts.(col) <- count_distinct r [ col ];
  counts.(col)

let distinct_count r = function
  | [ col ] -> distinct r col
  | positions -> count_distinct r positions

let equal a b =
  Schema.equal a.schema b.schema && Tuple.Set.equal a.extent b.extent

let diff old_r new_r =
  let inserted = Tuple.Set.diff new_r.extent old_r.extent in
  let deleted = Tuple.Set.diff old_r.extent new_r.extent in
  (Tuple.Set.elements inserted, Tuple.Set.elements deleted)

let pp ppf r =
  Format.fprintf ppf "@[<v 2>%a [%d tuples]%a@]" Schema.pp r.schema
    (cardinality r)
    (fun ppf () ->
      iter (fun t -> Format.fprintf ppf "@ %a" Tuple.pp t) r)
    ()
