(** End-to-end citation engine: query in, citations out.

    The pipeline is the paper's §2 with the §3 "calculating citations"
    cost shortcut:

    + rewrite the (parameter-stripped) query into its minimal
      equivalent rewritings over the citation views (MiniCon + verify);
    + optionally {e select} rewritings before any evaluation — with
      [selection = `Min_estimated_size] only the rewriting with the
      smallest estimated citation is evaluated, so the engine never
      enumerates "all rewritings and all assignments within each";
    + evaluate each selected rewriting through its expansion over the
      base relations (Definitions 2.1–2.2 read a rewriting over the
      views, but its unfolding {e is} the query, so no view extent is
      needed), collecting the bindings per output tuple;
    + build per-tuple formal expressions (Definitions 2.1/2.2), the
      result-level [Agg], and their policy-evaluated concrete citation
      sets; leaf citations are memoized per (view, valuation).

    {b Two endings of one evaluation.}  {!cite} and {!summary} share
    everything up to the per-rewriting runs ({!evaluate}): plan lookup,
    constant renaming, selection, the contained fallback, and each
    template's answers deferred to a fold.  The ending decides whether the answers are materialized.  {!cite} ends
    it with {!result_of}, which collects them and builds every answer's
    {!tuple_citation}, with its policy-evaluated citations, and the
    [Agg] over them.  {!summary} ends it with {!summary_of}, which
    folds the answers, as the join hands them on, straight into what a
    wire response carries — the answer count, the [Agg] expression and
    its citations — building no answer list, no per-tuple record and
    no per-tuple policy evaluation.  {!cite} is its oracle:
    a summary's fields equal the corresponding ones of the {!cite} of
    the same query on the same engine.  An {!Incremental} registration
    hands its read-back evaluation to the same two endings.

    {b Data on demand.}  An engine's data is its base database and one
    write-once cell ({!Dc_parallel.Once}) for the program's IDB
    extents.  {!cite} forces that cell only when a selected rewriting's
    expansion, a candidate view's definition (read by the size estimate
    of [`Min_estimated_size] / [`Min_exact_size]) or the citation
    queries of a leaf it resolves name an IDB predicate.  No cite
    materializes a view extent.  {!refresh} computes nothing; creation
    derives a program's IDB extents once, to validate the views.  A
    refreshed engine's cell may link to an older engine's cell, and
    then derives by continuing from the nearest computed one (see
    {!refresh}).
    {!derived_database} forces the cell; {!merged_database} computes
    the view extents afresh on each call.
    Results do not depend on whether the cell was forced, or by whom.

    {b Rewriting plans: one per query shape, per view set.}  A plan
    (the rewritings with their expansions) depends on the view set
    alone, never on the data, so it is keyed by the query's {e shape}:
    body atoms grouped by predicate, variables renamed in order of first
    occurrence, and every constant that occurs in no view definition
    lifted into a placeholder numbered by its rank among the query's
    lifted constants (and placed among the view constants).  Landing
    pages — one query shape, a different key each time — share one
    plan; a hit renames the plan's constants to the query's, in
    O(plan size), with no search, minimization or containment check.
    Rewriting only tests constants for equality and sorts a
    candidate's atoms by them, so it commutes with such an
    order-preserving renaming: a hit returns exactly what the search
    would for the query itself.  The maximally contained fallback
    ([fallback_contained]) is computed once per shape and renamed the
    same way.  A shape that misses runs the search once and files its
    plan under the shape; an equivalent query of another shape (say,
    with a redundant atom) is a shape of its own.  The plan cache
    belongs to the view set: {!create} and {!of_program} start it
    cold, and every engine derived from one by {!refresh} or {!replicate} — the
    per-version engines of a {!Versioned_engine}, its template,
    {!Incremental} registrations — shares it.

    {b Thread safety: caches read without a lock.}  One engine may
    serve {!cite} / {!cite_string} / {!resolve_leaf} calls from any
    number of threads and domains at once, and no cite waits on
    another's evaluation.  Its eval cache (indexes and compiled plans,
    which are reentrant) and its leaf cache are
    {!Dc_parallel.Cache}s: a lookup never waits, and a miss builds
    outside any lock.  Only a rewriting-plan miss (a shape's first
    search, or its contained fallback) takes a lock, and a wait for it
    bumps {!Metrics.Key.engine_lock_waits}.  Systhreads of one domain
    still take turns, so a fold offers the domain to waiting threads
    every 4,096 emissions of the join.  The column statistics behind
    the join order and [`Min_estimated_size] selection are memoized on
    the relation values ({!Dc_relational.Stats}), so every engine,
    version and thread reading one value counts it once.

    {!refresh} returns a copy sharing the plan and evaluation caches
    (never the leaf cache, which holds data-derived citations);
    {!replicate} returns one sharing only the plan cache.  Swapping
    which engine a server uses is the caller's problem.  The IDB cell
    may be first-forced by several threads or domains at once: one
    computes, with the evaluation cache of the engine that built the
    cell, while the others wait for its value.  A computation that
    raises leaves the cell empty for the next cite to retry. *)

type selection =
  [ `All  (** evaluate every minimal rewriting; [+R] applies at eval *)
  | `Min_estimated_size
    (** pre-select by {!Dc_rewriting.Cost.citation_size} estimate *)
  | `Min_exact_size  (** pre-select by exact per-view citation counts *) ]

type t

val create :
  ?policy:Policy.t ->
  ?selection:selection ->
  ?partial:bool ->
  ?fallback_contained:bool ->
  Dc_relational.Database.t ->
  Citation_view.t list ->
  t
(** Validates the views against the database and materializes nothing:
    cites read the base relations through rewriting expansions.
    Raises [Invalid_argument] when a view is named like a base relation
    or fails the schema check.  Defaults: the paper's policy
    ({!Policy.default}), [`Min_estimated_size] selection, no partial
    rewritings.  With [fallback_contained], a query with no equivalent
    rewriting is answered {e best-effort} through its maximally
    contained rewriting: the tuples are then possibly a strict subset
    of the true answer ([result.complete = false]) but each carries a
    citation.  The engine records into a fresh registry of its own
    ({!metrics}), which its {!refresh}ed copies share — so a
    {!Versioned_engine}'s per-version engines aggregate into one. *)

val of_program :
  ?policy:Policy.t ->
  ?selection:selection ->
  ?partial:bool ->
  ?fallback_contained:bool ->
  ?views:Citation_view.t list ->
  Dc_relational.Database.t ->
  Dc_cq.Program.t ->
  t
(** An engine over a Datalog program: the one door through which rules,
    views and citation queries all enter.  The program's IDB predicates
    are materialized with {!Dc_cq.Seminaive} (stratified, semi-naive)
    into a {e derived} store kept beside the base database — here once,
    eagerly, because validating the views needs the IDB schemas; in a
    {!refresh}ed engine on first demand.  Its exports
    become citation views, with non-recursive IDB predicates unfolded
    into the view bodies ({!Dc_cq.Program.unfold_exports}) so rewriting
    sees through them, and recursive predicates left as atoms over
    their materialized extents — treated exactly like base relations by
    the rewriting search.  [views] appends hand-built citation views
    (e.g. ones needing a [post] hook) on top of the program's exports.

    Raises [Invalid_argument] on IDB/base name collisions, malformed
    exports, or schema mismatches. *)

val replicate : t -> t
(** The same engine with evaluation and leaf caches of its own: it
    shares the data (base database and the IDB cell — whichever copy
    forces the cell first computes it for all, and nothing is computed
    twice), the view set and its rewriting-plan cache, the policy and
    the metrics registry.
    {!Versioned_engine} gives each per-version engine one, so versions
    never thrash each other's evaluation cache but never search a
    shape twice. *)

val database : t -> Dc_relational.Database.t
(** The base (EDB) database only — what {!refresh}, the version store
    and the WAL operate on; derived extents are recomputed, never
    stored or shipped. *)

val derived_database : t -> Dc_relational.Database.t
(** The materialized IDB extents of the engine's program, derived now
    if no cite needed them yet; empty for engines built with
    {!create}. *)

val program : t -> Dc_cq.Program.t option

val recursive_predicates : t -> string list
(** The program's IDB predicates computed by fixpoint iteration, in
    stratum order; [[]] without a program. *)

val citation_views : t -> Citation_view.Set.t
val policy : t -> Policy.t

val metrics : t -> Metrics.t
(** This engine's metrics handle: plan/leaf/eval cache hit counters,
    rewriting enumeration counters and wall-clock timers for work done
    through this engine.  {!Metrics.default} aggregates across all
    engines. *)

val merged_database : t -> Dc_relational.Database.t
(** Base relations, IDB extents and every view extent (computed afresh,
    under the [materialize] timer) in one database: what any rewriting,
    including a partial one, can be evaluated over directly.  For
    {!Explain} and test oracles. *)

type cell
(** An engine's IDB cell: its program's IDB extents, computed at most
    once, on first demand. *)

val cell : t -> cell

val refresh :
  ?ancestor:cell * Dc_relational.Delta.t -> t -> Dc_relational.Database.t -> t
(** The same engine over an updated database, in O(1) plus the size of
    [ancestor]'s changes: it builds a fresh IDB cell and computes
    nothing.  The IDB extents are derived by the first cite that reads
    them (see the note above), with this engine's evaluation cache, so
    every refresh of one engine — the per-version engines of a
    {!Versioned_engine} — shares one cache for that work.

    [ancestor] links the new cell to the cell of an engine over an
    older database, with a delta whose changes, applied in order, turn
    that engine's database into this one (only the changes to the
    program's input relations are kept).  When the new cell is first
    forced, it walks the links up to the nearest cell that is already
    computed — peeking, never forcing one — and continues from its
    extents with the net change between the two databases
    ({!Dc_cq.Seminaive.continue}, reading both databases at the changed
    tuples only).  With no computed cell up the chain it derives from
    scratch ({!Dc_cq.Seminaive.run}).  Either way the result is the
    same; a computed cell drops its link, so it pins no ancestor.

    No validation runs: the view set and program are the ones already
    checked.  The rewriting-plan cache is kept: plans depend only on
    the view set, which [refresh] never changes.  Only {!create} and
    {!of_program} — where the view set is chosen — start with a cold
    plan cache. *)

type tuple_citation = {
  tuple : Dc_relational.Tuple.t;
  expr : Cite_expr.t;  (** formal citation, Definitions 2.1/2.2 + [+R] *)
  citations : Citation.Set.t;  (** policy-evaluated concrete citations *)
}

type result = {
  query : Dc_cq.Query.t;
  rewritings : Dc_cq.Query.t list;  (** all minimal equivalent rewritings *)
  selected : Dc_cq.Query.t list;  (** the ones actually evaluated *)
  tuples : tuple_citation list;
      (** the query answer; when the query has no rewriting over the
          views it is evaluated directly and every tuple carries a
          leafless expression and an empty citation set *)
  result_expr : Cite_expr.t;  (** [Agg] over the tuples *)
  result_citations : Citation.Set.t;
  complete : bool;
      (** [false] only when the contained-rewriting fallback answered a
          query that has no equivalent rewriting: the tuples may then
          under-approximate the true answer *)
  stats : Dc_rewriting.Rewrite.stats;
}

val cite : t -> Dc_cq.Query.t -> result
(** Plans (rewriting search, cached per query shape), selects,
    evaluates and cites.
    Each selected rewriting's expansion, computed once per plan and
    kept in the rewriting-plan cache, is evaluated over the base
    relations with {!Dc_cq.Eval.run_projected} on the variables that
    fill its view parameters ({!Compute.fold}); the sorted per-rewriting
    runs are merged linearly, and each tuple's expression is built
    normalized from the distinct projections
    ({!Compute.projected_expr}).  Tuples of a single data-independent
    rewriting share its one expression and one policy evaluation, and
    every leaf is resolved through {!resolve_leaf}, so once per
    engine.
    {!summary} is the same evaluation folded into the wire response.
    The result is the one the literal composition gives:
    {!Dc_cq.Eval.run} of the rewriting over the materialized views
    ({!merged_database}), then Definition 2.2's expression normalized
    and {!Policy.eval} per tuple, then the same over the [Agg]. *)

val cite_string : t -> string -> (result, string) Stdlib.result
(** Parses with {!Dc_cq.Parser.parse_query} first. *)

type summary = {
  answers : int;  (** the number of answer tuples *)
  summary_expr : Cite_expr.t;  (** [Agg] over the answers' expressions *)
  summary_citations : Citation.Set.t;
  summary_complete : bool;  (** as {!result}'s [complete] *)
  rewriting_count : int;  (** the number of minimal equivalent rewritings *)
}
(** What a cite's wire response carries: no per-tuple data. *)

val summary : t -> Dc_cq.Query.t -> summary
(** The {!cite} of the query, folded: the same plan, selection and
    evaluation, then one pass over the answers in tuple order that
    counts them and feeds each expression to the [Agg]'s
    adjacent-repeat dedup as the join hands the answer on
    ({!summary_of}).  No answer list and no {!tuple_citation} list is
    built, and the policy runs once, over the [Agg].  Equal, field for
    field, to [answers = List.length r.tuples], [r.result_expr],
    [r.result_citations], [r.complete] and [List.length r.rewritings]
    of [r = cite e q]. *)

(** {1 One evaluation, two endings}

    [cite e q] is [result_of e q (evaluate e q)] and [summary e q] is
    [summary_of e (evaluate e q)].  The evaluation defers each
    template's answers, so the ending decides whether they are ever
    materialized.  {!Incremental} keeps an evaluation's metadata and
    supplies its answers from Datalog rows, then ends it the same
    way. *)

type answers =
  (Dc_relational.Tuple.t -> Dc_relational.Value.t array list -> unit) -> unit
(** A template's answers, computed when called: [answers f] calls [f]
    on each answer with the distinct projections of its bindings on the
    template's {!Compute.vars}, in {!Compute.fold}'s form and order.
    An engine's [answers] folds the template's expansion under the
    [eval] timer. *)

type evaluation = {
  all_rewritings : Dc_cq.Query.t list;
      (** all minimal equivalent rewritings: a result's [rewritings] *)
  chosen : Dc_cq.Query.t list;  (** the selected ones: [selected] *)
  answers_complete : bool;  (** [complete] *)
  search_stats : Dc_rewriting.Rewrite.stats;  (** [stats] *)
  runs : (Compute.template * answers) list;
      (** each evaluated template — a selected rewriting's, the contained
          fallback's or the query's own — with its deferred answers *)
}
(** What a cite evaluates before its answers are cited. *)

val evaluate : t -> Dc_cq.Query.t -> evaluation
(** Plans (rewriting search, cached per query shape) and selects, and
    pairs every template to evaluate with its deferred {!answers}: all
    of {!cite} but the evaluation itself and the citations. *)

val result_of : t -> Dc_cq.Query.t -> evaluation -> result
(** The result ending: every answer, in tuple order, with its normal
    expression ({!Compute.projected_expr} over the runs that produce it)
    and its policy-evaluated citations, and the [Agg] over them.  It
    collects each run's answers into a list first, since it returns
    them.  Tuples of a single data-independent run share one
    expression and one policy evaluation; the leaves resolve after the
    runs are collected.  The evaluation's metadata
    fills [rewritings], [selected], [complete] and [stats]. *)

val summary_of : t -> evaluation -> summary
(** The summary ending: the answers counted and their expressions
    folded, in tuple order, into the [Agg]; no answer list is built,
    no per-tuple record either, and the policy runs once.  A single
    run (the default selection's one rewriting) is folded directly:
    each answer is counted and its expression pushed as the join hands
    it on, and the leaves are resolved after the fold.  Several runs
    ([`All] selection, or the contained fallback) are collected and
    merged as {!result_of} does. *)

val resolve_leaf : t -> Cite_expr.leaf -> Citation.t
(** The engine's memoized leaf resolver (exposed for tests and for
    rendering formal expressions independently of [cite]). *)
