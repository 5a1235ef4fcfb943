(* An index answers a probe in one of two ways.

   - A table over one array of the extent in which each key's matches
     lie together, in ascending order: for a column prefix the
     relation's own {!Relation.scan} array (nothing copied), otherwise
     a private copy laid out key by key, each key's tuples in scan
     order.  An open-addressing hash table over every key column
     finds a key's range in that array, so a probe hands out a slice of
     the array and allocates nothing, and the table stores no key and
     no cell per tuple.
   - When the bound positions are a column prefix [0..k-1], a range
     descent in the relation's persistent extent
     ({!Relation.probe_prefix}), which answers the same tuples in the
     same ascending order and needs nothing built.

   A prefix index starts with the descent and buys the table on the
   probe where the probes so far reach [card / build_divisor] — ski
   rental, with the table as the skis.  Measured on a 2-vCPU VM
   (GtoPdb Family, FamilyIntro and Committee at 800 to 25k tuples, each
   key probed once in random order): a set descent costs 450-850 ns, a
   hash probe 100-260 ns, and a build 90-310 ns per tuple, measured
   with a chained table of one binding per tuple; the range table
   builds several times faster, which only lowers the break-even.
   Renting
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

(* [sorted] holds each key's matches together, ascending.  [slots] is
   an open-addressing hash table of the keys (linear probing, a
   power-of-two size at least twice the keys): a slot holds [0] when
   empty, else a key's range [[first, stop)] of [sorted], packed.  A
   key is read off its first match at [pos], so none is stored. *)
type table = { pos : int array; sorted : Tuple.t array; slots : int array }

type t = {
  positions : int list;
  rel : Relation.t;
  threshold : int;  (** [0]: the table was built eagerly *)
  probes : int Atomic.t;
  table : table option Atomic.t;
}

type matches = {
  mutable tuples : Tuple.t array;
  mutable first : int;
  mutable stop : int;
  mutable buffer : Tuple.t array;
}

let matches () = { tuples = [||]; first = 0; stop = 0; buffer = [||] }

(* The descent's matches, copied into [m]'s own buffer, which grows to
   the longest run it has held and is then reused: a long run does not
   cost a fresh array per probe. *)
let descend rel key m =
  let n = ref 0 in
  Relation.probe_prefix rel key (fun t ->
      if !n = Array.length m.buffer then begin
        let grown = Array.make (max 8 (2 * !n)) t in
        Array.blit m.buffer 0 grown 0 !n;
        m.buffer <- grown
      end;
      m.buffer.(!n) <- t;
      incr n);
  m.tuples <- m.buffer;
  m.first <- 0;
  m.stop <- !n

let is_prefix positions =
  List.for_all2 ( = ) positions (List.init (List.length positions) Fun.id)

let rec compare_at pos a b j =
  if j = Array.length pos then 0
  else
    match Value.compare a.(pos.(j)) b.(pos.(j)) with
    | 0 -> compare_at pos a b (j + 1)
    | c -> c

(* A slot's range; extents stay far below 2^31 tuples. *)
let pack first stop = 1 + ((first lsl 31) lor stop)
let first_of slot = (slot - 1) lsr 31
let stop_of slot = (slot - 1) land ((1 lsl 31) - 1)

(* A tuple's key at [pos] and the same key as a probe's array hash
   alike. *)
let rec hash_at pos t j h =
  if j = Array.length pos then h
  else hash_at pos t (j + 1) (((h * 31) + Value.hash t.(pos.(j))) land max_int)

let rec hash_key key j h =
  if j = Array.length key then h
  else hash_key key (j + 1) (((h * 31) + Value.hash key.(j)) land max_int)

let rec key_matches pos t key j =
  j = Array.length key
  || (Value.equal t.(pos.(j)) key.(j) && key_matches pos t key (j + 1))

let slots_for keys =
  let rec size s = if s >= 2 * keys then s else size (2 * s) in
  Array.make (size 8) 0

let home slots h = h land (Array.length slots - 1)
let next_slot slots j = (j + 1) land (Array.length slots - 1)

let rec free_slot slots j =
  if slots.(j) = 0 then j else free_slot slots (next_slot slots j)

(* On a column prefix the extent's own order already holds each key's
   matches together: one pass over {!Relation.scan} counts the runs, a
   second hashes each run once.  Nothing is copied. *)
let prefix_table pos scan =
  let n = Array.length scan in
  let rec stop_of_run first stop =
    if stop < n && compare_at pos scan.(first) scan.(stop) 0 = 0 then
      stop_of_run first (stop + 1)
    else stop
  in
  let rec runs first count =
    if first = n then count
    else runs (stop_of_run first (first + 1)) (count + 1)
  in
  let slots = slots_for (runs 0 0) in
  let rec insert first =
    if first < n then begin
      let stop = stop_of_run first (first + 1) in
      slots.(free_slot slots (home slots (hash_at pos scan.(first) 0 0))) <-
        pack first stop;
      insert stop
    end
  in
  insert 0;
  { pos; sorted = scan; slots }

(* While grouping, a slot holds [1 +] the scan index of its key's first
   occurrence, which is also the key's name; finds [i]'s key from slot
   [j], adding it when new. *)
let rec first_occurrence pos slots scan i j =
  match slots.(j) with
  | 0 ->
      slots.(j) <- i + 1;
      i
  | s when compare_at pos scan.(s - 1) scan.(i) 0 = 0 -> s - 1
  | _ -> first_occurrence pos slots scan i (next_slot slots j)

(* Elsewhere the copy is laid out key by key in order of first
   occurrence, each key's tuples in scan order, so ascending: one pass
   names each tuple's key (one hash per tuple) and counts the keys and
   their tuples, one turns the counts into write positions, one copies,
   and one hashes each key's range into a table sized for the keys. *)
let grouped_table pos scan =
  let n = Array.length scan in
  let names = slots_for n in
  let key = Array.make n 0 and next = Array.make n 0 and keys = ref 0 in
  for i = 0 to n - 1 do
    let k =
      first_occurrence pos names scan i (home names (hash_at pos scan.(i) 0 0))
    in
    if k = i then incr keys;
    key.(i) <- k;
    next.(k) <- next.(k) + 1
  done;
  let start = ref 0 in
  for k = 0 to n - 1 do
    if key.(k) = k then begin
      let size = next.(k) in
      next.(k) <- !start;
      start := !start + size
    end
  done;
  let sorted = Array.make n (if n = 0 then [||] else scan.(0)) in
  for i = 0 to n - 1 do
    let k = key.(i) in
    sorted.(next.(k)) <- scan.(i);
    next.(k) <- next.(k) + 1
  done;
  (* [next.(k)] is now where key [k]'s run stops, and it starts where
     the previous key's stopped *)
  let slots = slots_for !keys and stop = ref 0 in
  for k = 0 to n - 1 do
    if key.(k) = k then begin
      slots.(free_slot slots (home slots (hash_at pos scan.(k) 0 0))) <-
        pack !stop next.(k);
      stop := next.(k)
    end
  done;
  { pos; sorted; slots }

let make_table r positions =
  let pos = Array.of_list positions in
  if is_prefix positions then prefix_table pos (Relation.scan r)
  else grouped_table pos (Relation.scan r)

let has_table idx = Option.is_some (Atomic.get idx.table)

let publish idx =
  Dc_parallel.Metrics.(record Key.eval_index_builds);
  let table = make_table idx.rel idx.positions in
  Atomic.set idx.table (Some table);
  table

let build_table idx = if not (has_table idx) then ignore (publish idx)

let rec find table key j =
  match table.slots.(j) with
  | 0 -> 0
  | s when key_matches table.pos table.sorted.(first_of s) key 0 -> s
  | _ -> find table key (next_slot table.slots j)

let answer table key m =
  match find table key (home table.slots (hash_key key 0 0)) with
  | 0 ->
      m.first <- 0;
      m.stop <- 0
  | s ->
      if m.tuples != table.sorted then m.tuples <- table.sorted;
      m.first <- first_of s;
      m.stop <- stop_of s

let probe idx key m =
  match Atomic.get idx.table with
  | Some table -> answer table key m
  | None ->
      if Atomic.fetch_and_add idx.probes 1 + 1 = idx.threshold then
        answer (publish idx) key m
      else descend idx.rel key m

let lookup_key idx key =
  let m = matches () in
  probe idx key m;
  List.init (m.stop - m.first) (fun j -> m.tuples.(m.first + j))

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
