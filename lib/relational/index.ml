(* An index answers [lookup_key] in one of two ways.

   - A hash table binding the projected key to each matching tuple with
     [Tbl.add], filled in ascending tuple order, so [find_all] yields
     each bucket most-recent-first: descending tuple order.
     [Tuple.Tbl] hashes with the full-width [Tuple.hash], so bindings
     spread even for wide keys.
   - When the bound positions are a column prefix [0..k-1], a range
     descent in the relation's persistent extent
     ({!Relation.probe_prefix}), which answers in the same descending
     order and needs nothing built.

   A prefix index starts with the descent and buys the table on the
   probe where the probes so far reach [card / build_divisor] — ski
   rental, with the table as the skis.  Measured on a 2-vCPU VM
   (GtoPdb Family, FamilyIntro and Committee at 800 to 25k tuples, each
   key probed once in random order): a set descent costs 450-850 ns, a
   hash probe 100-260 ns, and a build 90-310 ns per tuple.  Renting
   therefore breaks even after 0.2-0.7 probes per tuple.  (E19 probes
   the 1,000-tuple Family twenty times over, with warmer caches: about
   310 ns, 85 ns and 65 ns, breaking even at 0.3.)  Buying at one
   probe per 8 tuples, below every measured break-even, wastes at most
   45-75 ns of rent per tuple on a relation that turns out to be probed
   heavily: a fifth to two thirds of its build cost.  That matters for
   semi-naive derivation, which probes each stratum's unchanged
   relations many times (E20's fixpoints stay within noise of eager
   builds).  A landing-page cite
   of a per-version engine probes a few dozen keys and never builds.
   Keys that are not a prefix build eagerly, as they have no ordered
   alternative.

   The table is built privately by the one probe whose count reaches
   the threshold and published through an [Atomic]; it is never
   mutated after that, so probes from several domains may read it
   concurrently, and a probe that finds no table yet descends the set
   (immutable) instead of waiting. *)
let build_divisor = 8

type t = {
  positions : int list;
  rel : Relation.t;
  threshold : int;  (** [0]: the table was built eagerly *)
  probes : int Atomic.t;
  table : Tuple.t Tuple.Tbl.t option Atomic.t;
}

let make_table r positions =
  let table = Tuple.Tbl.create (max 16 (Relation.cardinality r)) in
  let arr = Relation.scan r in
  for i = 0 to Array.length arr - 1 do
    let tuple = arr.(i) in
    Tuple.Tbl.add table (Tuple.project tuple positions) tuple
  done;
  table

let is_prefix positions =
  List.for_all2 ( = ) positions (List.init (List.length positions) Fun.id)

let positions idx = idx.positions
let has_table idx = Option.is_some (Atomic.get idx.table)

let publish idx =
  Dc_parallel.Metrics.(record Key.eval_index_builds);
  let table = make_table idx.rel idx.positions in
  Atomic.set idx.table (Some table);
  table

let build_table idx = if not (has_table idx) then ignore (publish idx)

let lookup_key idx key =
  match Atomic.get idx.table with
  | Some table -> Tuple.Tbl.find_all table key
  | None ->
      if Atomic.fetch_and_add idx.probes 1 + 1 = idx.threshold then
        Tuple.Tbl.find_all (publish idx) key
      else Relation.probe_prefix idx.rel key

let build r positions =
  let prefix = is_prefix positions in
  let idx =
    {
      positions;
      rel = r;
      threshold =
        (if prefix then max 1 (Relation.cardinality r / build_divisor) else 0);
      probes = Atomic.make 0;
      table = Atomic.make None;
    }
  in
  if not prefix then build_table idx;
  idx

let lookup idx key = lookup_key idx (Tuple.make key)

let keys idx =
  Relation.fold
    (fun t acc -> Tuple.Set.add (Tuple.project t idx.positions) acc)
    idx.rel Tuple.Set.empty
  |> Tuple.Set.elements
