(** Indexes over relation extents.

    The conjunctive-query evaluator asks for an index per (relation,
    bound-column-set) pair it encounters, turning nested-loop joins into
    index joins.  An index belongs to one relation value and is never
    maintained under updates: a new value gets a new index.

    {b The stored form.}  A table keeps one array of the extent in
    which each key's matches lie together, ascending — for a column
    prefix the relation's own {!Relation.scan} array, shared, otherwise
    a private copy laid out key by key, each key's tuples in scan
    order — and an open-addressing hash table of the keys' ranges
    there, which reads each key off its first match instead of storing
    it.  A {!probe} answers a slice of that array and allocates
    nothing.

    {b When a table is built.}  When the bound positions are {e not} a
    column prefix, {!build} builds the table from the extent at once.
    When they are a prefix [[0; ...; k-1]], {!build} builds nothing: a
    probe is a range descent in the relation's persistent extent
    ({!Relation.probe_prefix}, copied into the caller's slot), and the table
    is built on the probe where the probes so far reach a fixed
    fraction of the relation's cardinality (ski rental; the fraction
    and its costs are in [index.ml]), which may fall in the middle of
    one evaluation.  Either way every probe answers the same tuples in
    the same order, ascending {!Tuple.compare}: a caller walking the
    matches sees the same sequence before and after the switch.

    {b Thread safety.}  One index may be probed from several domains at
    once.  The lazily built table is built by exactly one probe and
    published whole through an atomic; probes racing with the build
    descend the extent meanwhile, and nothing mutates a published
    table. *)

type t

val build : Relation.t -> int list -> t
(** [build r positions] indexes the extent of [r] on the projection to
    [positions].  Each hash table built counts once under
    {!Dc_parallel.Metrics.Key.eval_index_builds}, recorded on the
    building domain: inside [build] for a non-prefix key, inside the
    probe that buys it for a prefix key, and never when no table is
    built. *)

val has_table : t -> bool
(** Whether the hash table has been built (tests and benchmarks). *)

val build_table : t -> unit
(** Builds the hash table now unless it is built already (benchmarks
    time the build with it; probes buy the table on their own). *)

type matches = private {
  mutable tuples : Tuple.t array;
  mutable first : int;
  mutable stop : int;
  mutable buffer : Tuple.t array;
}
(** Where {!probe} leaves its answer: the tuples [tuples.(first)] to
    [tuples.(stop - 1)], in ascending {!Tuple.compare} order.  Callers
    read these three fields and must not mutate the array: it is the
    table's own, or the slot's [buffer]. *)

val matches : unit -> matches
(** An empty answer slot.  A run of a compiled plan makes one per step
    and reuses it for every probe of that step in the run.  The slot
    outlives a probe, and its buffer holds the last descent's tuples,
    so a slot is one thread's: each run makes its own. *)

val probe : t -> Value.t array -> matches -> unit
(** [probe idx key m] sets [m] to every tuple whose projection on the
    index positions equals [key] (in position order), replacing the
    slot's previous answer.  Once the table is built the answer is a
    slice of the table's array and the probe allocates nothing; until
    then the descent copies its matches into the slot's buffer, which
    grows to the longest run seen and is reused.  The index retains
    neither [key] nor [m]. *)

val lookup_key : t -> Value.t array -> Tuple.t list
(** [lookup_key idx key] is {!probe}'s answer as a list: every tuple
    whose projection on the index positions equals [key], in ascending
    {!Tuple.compare} order.  The index does not retain [key]. *)
