(** Bottom-up evaluation of conjunctive queries over a database.

    Besides the output relation, the evaluator exposes the full set of
    {e bindings} behind each output tuple: Definition 2.2 of the paper
    sums citations over "the set of all bindings for Q' that yield a
    tuple t", so the citation engine needs β_t, not just t.

    Evaluation dispatches through {!Plan}: the query is compiled once
    (slot-numbered variables, cost-based join order, statically resolved
    index probes) and the compiled plan is cached alongside the index
    cache.  Repeated evaluations of the same query over the same extents
    — the citation hot path — run the slot kernel directly, touching no
    string map and allocating no per-probe key.  The nullary predicate
    [True] is built in and always holds.

    Cache lookups record into {!Dc_parallel.Metrics}: index-cache hits
    and misses, plan-cache hits and compilations (compile time under the
    [plan_compile] timer). *)

exception Unknown_relation of string

module Binding : sig
  (** A binding: total valuation of a query's variables. *)

  type t

  val empty : t
  val find : t -> string -> Dc_relational.Value.t option
  val find_exn : t -> string -> Dc_relational.Value.t
  val bind : t -> string -> Dc_relational.Value.t -> t
  val to_list : t -> (string * Dc_relational.Value.t) list
  val of_list : (string * Dc_relational.Value.t) list -> t

  val values : t -> string list -> Dc_relational.Value.t list
  (** Values of the listed variables, in order.
      Raises [Not_found] when one is unbound. *)

  val restrict : t -> string list -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
end

type cache
(** A reusable evaluation cache holding hash indexes and compiled
    plans (the statistics that feed the compile-time join order are
    memoized on the relation values, not here).  Plans are keyed by
    the query's syntax with constants compared as typed values
    ({!Query.Tbl}); indexes by (predicate, bound positions).  Every
    entry is validated against the current relation values by physical
    identity, so one cache can safely serve many
    evaluations over evolving persistent databases: stale entries are
    rebuilt transparently.  The plan table is capacity-bounded (reset
    on overflow) because instantiated citation queries pin fresh
    constants and would otherwise grow it without bound.  Sharing a cache turns repeated
    evaluations over the same extents — e.g. resolving thousands of
    parameterized citation leaves — from compile-and-index-build-bound
    into pure slot-kernel runs. *)

val make_cache : unit -> cache

val bindings : ?cache:cache -> Dc_relational.Database.t -> Query.t -> Binding.t list
(** All satisfying valuations of the query body, in no particular
    order.  Duplicates cannot arise (set semantics on relations). *)

val tuple_of_binding : Query.t -> Binding.t -> Dc_relational.Tuple.t
(** The head tuple a binding produces. *)

val run :
  ?cache:cache ->
  Dc_relational.Database.t ->
  Query.t ->
  (Dc_relational.Tuple.t * Binding.t list) list
(** Output tuples grouped with the bindings that produce them, sorted by
    tuple, each tuple's bindings in {!Binding.compare} order.  It is
    {!run_projected} on every body variable, in name order (the order
    {!Binding.compare} reads a binding's values in), with each
    projection read back as a {!Binding.t}; a caller that needs only
    some variables should use {!run_projected}. *)

val run_projected :
  ?cache:cache ->
  Dc_relational.Database.t ->
  Query.t ->
  string list ->
  (Dc_relational.Tuple.t * Dc_relational.Value.t array list) list
(** [run_projected db q vars] has the output tuples of {!run}, in the
    same order, each paired with the {e distinct} valuations of [vars]
    among the bindings that produce it: one array per valuation, its
    values in [vars] order, the arrays sorted by
    {!Dc_relational.Tuple.compare}.  It is [run] with every binding
    projected onto [vars] and duplicates dropped, but the join writes
    straight from its register file: no binding map is built per
    emission.  With [vars = []] each tuple carries the single empty
    array, so the call computes the sorted distinct answers.  The
    citation engine passes the variables that feed citation-view
    parameters.  Raises [Invalid_argument] when a variable of [vars]
    does not occur in the body of [q].

    How the order is produced, in one pass: the plan runs with its
    outer scan in head order ({!Plan.execute}[ ~head_order:true]), so
    the emissions arrive in blocks of equal {!Plan.head_prefix}, and
    each emission is compared once with the one before it, head tuple
    first, then projection.  Greater starts a new answer, an equal
    head tuple with a greater projection joins the last answer, an
    equal pair is dropped, and smaller marks the block as out of
    order.  Only the marked blocks are sorted, each once when it ends
    ({!Dc_parallel.Metrics.Key.eval_block_sorts}); the others are
    grouped as they arrive.  An emission costs that comparison and at
    most one head tuple and one projection array; a head tuple equal
    to the previous one is shared.  A prefix of length 0 (a
    probe-first plan, or a head led by a variable the outer atom does
    not bind) makes the whole evaluation one block, sorted once unless
    the emissions happen to arrive in order.  The result is the same
    either way. *)

val result :
  ?cache:cache ->
  Dc_relational.Database.t ->
  Query.t ->
  Dc_relational.Relation.t
(** Just the output relation; its schema is {!head_schema} of the
    query's name and head. *)

val head_schema : string -> Term.t list -> Dc_relational.Schema.t
(** The all-[TAny] schema of the rows a head with these terms writes:
    a variable names its column, a constant at position [i] names it
    [ci], and a name already taken gets [_i] appended until it is free.
    {!Seminaive} names IDB extents this way too. *)

val holds : ?cache:cache -> Dc_relational.Database.t -> Query.t -> bool
(** Whether the query has at least one answer (boolean query support).
    Short-circuits on the first satisfying valuation. *)
