(** Indexes over relation extents.

    The conjunctive-query evaluator asks for an index per (relation,
    bound-column-set) pair it encounters, turning nested-loop joins into
    index joins.  An index belongs to one relation value and is never
    maintained under updates: a new value gets a new index.

    {b When a table is built.}  When the bound positions are {e not} a
    column prefix, {!build} builds a hash table from the extent at once.
    When they are a prefix [[0; ...; k-1]], {!build} builds nothing: a
    probe is a range descent in the relation's persistent extent
    ({!Relation.probe_prefix}), and the hash table is built on the probe
    where the probes so far reach a fixed fraction of the relation's
    cardinality (ski rental; the fraction and its costs are in
    [index.ml]).  Either way every probe answers the same tuples in the
    same order, descending {!Tuple.compare}.

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

val positions : t -> int list

val has_table : t -> bool
(** Whether the hash table has been built (tests and benchmarks). *)

val build_table : t -> unit
(** Builds the hash table now unless it is built already (benchmarks
    time the build with it; probes buy the table on their own). *)

val lookup : t -> Value.t list -> Tuple.t list
(** [lookup idx key] is every tuple whose projection on the index
    positions equals [key] (in position order), in descending
    {!Tuple.compare} order. *)

val lookup_key : t -> Value.t array -> Tuple.t list
(** Like {!lookup} but probing with an already-materialized key array —
    the compiled join kernel fills one preallocated buffer per plan step
    and probes with it, so the hot path allocates no key per probe.  The
    index does not retain [key]. *)

val keys : t -> Tuple.t list
(** Distinct keys present in the index, ascending. *)
