(** In-memory relation extents.

    A relation couples a {!Schema.t} with a set of tuples.  Extents are
    persistent (backed by a balanced set), so snapshotting a database for
    the version store is O(1) and shares structure. *)

type t

val empty : Schema.t -> t
val schema : t -> Schema.t
val name : t -> string

val insert : t -> Tuple.t -> t
(** Raises [Invalid_argument] when the tuple does not conform to the
    schema.  Inserting a tuple already present returns the same value.
    The result knows its {!cardinality}, the {!distinct} counts of the
    columns [r] had counted and its {!multiset_hash} without recounting
    when [r] already knew them (one tuple hash, and one O(log d) map
    update per counted column, per insert). *)

val insert_list : t -> Tuple.t list -> t

val delete : t -> Tuple.t -> t
(** Deleting an absent tuple returns the same value; otherwise the
    cardinality, distinct counts and multiset hash carry over as for
    {!insert}. *)

val mem : t -> Tuple.t -> bool
val cardinality : t -> int
(** Memoized on the relation value, like {!scan}. *)

val scan : t -> Tuple.t array
(** The extent as an array in {!Tuple.compare} order, memoized on the
    relation value (extents are immutable, so it is computed at most
    once per value).  This is the full-scan path of the evaluator and
    the index builder.  Callers must not mutate the array. *)

val scan_by : t -> int list -> Tuple.t array
(** [scan_by r positions] is the extent ordered by the values at
    [positions], compared lexicographically in list order with
    {!Value.compare}; tuples that tie there keep their {!scan} order.
    It is memoized on the relation value per position list, like
    {!scan}, and never carried by {!insert}/{!delete}: a new value sorts
    afresh on first demand, and each sort is one
    {!Dc_parallel.Metrics.Key.eval_scan_orders}.  Filling the memo from
    two domains at once is a benign race: both compute the same array
    from the same immutable extent and one write wins (word-sized
    stores are atomic in OCaml); an entry lost to the other domain's
    write is merely sorted again on a later demand.  This is the
    head-ordered outer scan of {!Dc_cq.Plan} when the head's leading
    columns are not a column prefix.  Callers must not mutate the
    array. *)

val tuples : t -> Tuple.t list
(** [Array.to_list (scan r)]: ascending tuple order.  Prefer {!scan},
    {!iter} or {!fold} on hot paths — they share the memoized array
    instead of building a fresh list. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the memoized {!scan} array, ascending tuple order. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** Over the memoized {!scan} array, ascending tuple order. *)

val probe_prefix : t -> Value.t array -> (Tuple.t -> unit) -> unit
(** [probe_prefix r key f] applies [f] to every tuple whose first
    [Array.length key] columns equal [key], in ascending
    {!Tuple.compare} order (the order {!Index.probe} answers in),
    materializing nothing.  It is one range descent of the persistent
    extent — O(log n + matches), no index built — since within one
    arity {!Tuple.compare} orders the extent column by column.  [r]
    does not retain [key].  Raises [Invalid_argument] when [key] is
    wider than the relation. *)

val multiset_hash : t -> Multiset_hash.t
(** The {!Multiset_hash} of the extent, computed over every tuple on
    first demand and memoized on the value; a value derived by
    {!insert}/{!delete} from one whose hash was demanded already has
    it.  Values whose hash nobody demands never compute one. *)

val of_list : Schema.t -> Tuple.t list -> t
(** [of_list schema rows] is [insert_list (empty schema) rows], built
    once: of tuples that compare equal it keeps the first given (so
    [Float 0.0] and [Float (-0.0)] are stored as {!insert} stores them),
    and it raises [Invalid_argument] when a row does not conform, before
    building anything.  Rows given in ascending {!Tuple.compare} order,
    as {!scan} lists them, are checked in one pass and not sorted;
    others are sorted once, stably.  The extent is then built in one
    pass, one tree node per tuple, and the value already knows its
    {!cardinality} and its {!scan} array.  It counts no column and
    hashes nothing: {!distinct} and {!multiset_hash} count on first
    demand.  CSV loads, snapshot decodes, query results ({!Dc_cq.Eval})
    and Datalog deltas are built this way; commits go through
    {!insert} and {!delete}, which carry what the parent value knew. *)

val distinct : t -> int -> int
(** [distinct r col] is the number of distinct values ({!Value.compare}
    classes) in column [col].  It is exact, and kept on the relation
    value with each value's multiplicity: a value made by {!insert} or
    {!delete} from one that had counted [col] carries the count in
    O(log d), so commits never rescan a relation whose earlier version
    was counted.  A value with no counted ancestor (a CSV load, a query
    result, {!of_list}, a re-derived Datalog extent) counts
    in one pass over its extent on first demand, which
    {!Dc_parallel.Metrics.Key.stats_column_scans} counts.  Every engine,
    template and domain reading one value shares its counts.  These are
    the statistics behind the plan compiler's join order and the
    rewriting cost model ({!Stats}).  Raises [Invalid_argument] for a
    column out of range. *)

val distinct_count : t -> int list -> int
(** [distinct_count r positions] is the number of distinct projections of
    the extent on [positions], counted in one hash-table pass (not
    memoized);
    [distinct_count r [col]] is {!distinct}[ r col]. *)

val equal : t -> t -> bool
val diff : t -> t -> Tuple.t list * Tuple.t list
(** [diff old new_] is [(inserted, deleted)] going from [old] to [new_]. *)

val pp : Format.formatter -> t -> unit
