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

    Grouped answers have one core, the fold {!fold_projected}, which
    hands each answer on as its block of the join completes;
    {!run_projected} and {!run} are its collectors.

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
    ({!Query.compare_syntactic}); indexes by (predicate, bound
    positions).  Every entry is validated against the current relation
    values by physical identity, so one cache can safely serve many
    evaluations over evolving persistent databases: stale entries are
    rebuilt transparently.  The plan table is capacity-bounded (reset
    on overflow) because instantiated citation queries pin fresh
    constants and would otherwise grow it without bound.  Sharing a
    cache turns repeated evaluations over the same extents — e.g.
    resolving thousands of parameterized citation leaves — from
    compile-and-index-build-bound into pure slot-kernel runs.

    One cache may serve evaluations on any number of threads and
    domains at once, with no lock: both tables are
    {!Dc_parallel.Cache}s, read with one atomic load, and a compiled
    plan is reentrant ({!Plan}).  Two evaluations that miss one entry
    at once both build it, and one build is dropped. *)

val make_cache : unit -> cache

val bindings : ?cache:cache -> Dc_relational.Database.t -> Query.t -> Binding.t list
(** All satisfying valuations of the query body, in no particular
    order.  Duplicates cannot arise (set semantics on relations). *)

val tuple_of_binding : Query.t -> Binding.t -> Dc_relational.Tuple.t
(** The head tuple a binding produces. *)

val fold_projected :
  ?cache:cache ->
  ?tick:(unit -> unit) ->
  Dc_relational.Database.t ->
  Query.t ->
  string list ->
  (Dc_relational.Tuple.t -> Dc_relational.Value.t array list -> 'a -> 'a) ->
  'a ->
  'a
(** [fold_projected db q vars f init] folds [f] over the output tuples
    of [q], in ascending {!Dc_relational.Tuple.compare} order, each
    with the {e distinct} valuations of [vars] among the bindings that
    produce it: one array per valuation, its values in [vars] order,
    the arrays ascending under {!Dc_relational.Tuple.compare}.  The
    join writes straight from its register file: no binding map is
    built per emission.  With [vars = []] each tuple carries the single
    empty array.  The citation engine passes the variables that feed
    citation-view parameters.  Raises [Invalid_argument] when a
    variable of [vars] does not occur in the body of [q].  [tick] is
    called once every 4,096 emissions of the join (default: nothing),
    however the emissions group into answers.

    {b Streaming.}  The plan runs with its outer scan in head order
    ({!Plan.execute}[ ~head_order:true]), so the emissions arrive in
    blocks of equal {!Plan.head_prefix}, and each answer is handed to
    [f] as soon as its block is complete, while the join runs on: no
    list of answers is built, and nothing answer-sized outlives its
    block.  An exception from [f] stops the join there.  Each emission
    is compared once with the one before it, head tuple first, then
    projection: an equal pair is dropped, and a smaller one starts a
    new ascending run.  A block of one emission goes straight to [f];
    a longer one waits in scratch arrays, and one of several runs is
    sorted there, once, when it ends, by merging its runs through a
    permutation of unboxed slot numbers
    ({!Dc_parallel.Metrics.Key.eval_block_sorts}).  The process keeps
    one set of scratch arrays, with the capacity of the largest block
    seen, for whichever fold takes it; their slots are cleared after
    each block, and a fold that finds them taken (by another thread's
    fold, or by the fold whose [f] started it) uses arrays of its own.
    A prefix of length 0 (a probe-first plan, or a head led by a
    variable the outer atom does not bind) makes the whole evaluation
    one block. *)

val run_projected :
  ?cache:cache ->
  Dc_relational.Database.t ->
  Query.t ->
  string list ->
  (Dc_relational.Tuple.t * Dc_relational.Value.t array list) list
(** {!fold_projected}'s answers collected into a list, in its order:
    with [vars = []] the sorted distinct answers. *)

val run :
  ?cache:cache ->
  Dc_relational.Database.t ->
  Query.t ->
  (Dc_relational.Tuple.t * Binding.t list) list
(** Output tuples grouped with the bindings that produce them, sorted by
    tuple, each tuple's bindings in {!Binding.compare} order.  It is
    {!fold_projected} on every body variable, in name order (the order
    {!Binding.compare} reads a binding's values in), collected, with
    each projection read back as a {!Binding.t}; a caller that needs
    only some variables should use {!run_projected}. *)

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
