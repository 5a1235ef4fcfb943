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
    {!derived_database} forces the cell; {!view_database} and
    {!merged_database} compute the view extents afresh on each call.
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
    same way.  A shape that misses is also compared,
    by Chandra–Merlin equivalence of its minimized form, against the
    plans of its predicate multiset.  The plan cache belongs to the
    view set: {!create} and {!of_program} start it cold, and every
    engine derived from one by {!refresh} or {!replicate} — the
    per-version engines of a {!Versioned_engine}, its template,
    {!Incremental} replicas — shares it.

    {b Thread safety: per-domain caches.}  One engine may serve {!cite}
    / {!cite_string} / {!resolve_leaf} calls from any number of threads
    and domains at once, and domains never contend on it.  Every cache
    it keeps — rewriting plans (with their expansions), leaf citations,
    the evaluation index and plan cache — exists once per domain that
    uses the engine, found through [Domain.DLS]
    ({!Dc_parallel.Domain_local}, the mechanism {!Metrics} keeps its
    sinks with).  A domain's eval and leaf caches are guarded by a
    mutex of their own, and its rewriting plans by another, which only
    systhreads of that domain (the server's worker threads) can contend
    on; a plan-cache hit takes no lock at all.  Each acquisition that
    finds a mutex already held bumps {!Metrics.Key.engine_lock_waits}.
    The price of the model is cache warmth: each domain pays its own
    cache misses.  The column statistics behind the join order and
    [`Min_estimated_size] selection are not a cache of the engine: they
    are memoized on the relation values ({!Dc_relational.Stats}), so
    every engine, version and domain reading one value counts it once.

    {!refresh} returns a copy sharing the plan and evaluation caches
    (never the leaf cache, which holds data-derived citations);
    {!replicate} returns one sharing only the plan cache.  Swapping which engine a
    server uses is the caller's problem.  The IDB cell may be
    first-forced by several threads or domains at once: one computes,
    under the forcing domain's cache lock and evaluation cache of the
    engine that built the cell, while the others wait for its value.
    A computation that raises leaves the cell empty for the next cite
    to retry.  The cell is never forced while a cache lock is held.  The contract covers only access {e through} the engine: code
    that takes the raw {!eval_cache} handle and evaluates with it
    directly ({!Incremental} does) bypasses the lock and must not run
    concurrently with citations of the same engine on the same
    domain. *)

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
  ?metrics:Metrics.t ->
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
    citation.  With [metrics], the engine records into the given
    registry instead of a fresh private one — {!Versioned_engine} uses
    this to aggregate all its per-version engines into one registry. *)

val of_program :
  ?policy:Policy.t ->
  ?selection:selection ->
  ?partial:bool ->
  ?fallback_contained:bool ->
  ?metrics:Metrics.t ->
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
    shape twice, and each {!Incremental} registration one, because it
    evaluates through the raw {!eval_cache} without the lock. *)

val database : t -> Dc_relational.Database.t
(** The base (EDB) database only — what {!refresh}, the version store
    and the WAL operate on; derived extents are recomputed, never
    stored or shipped. *)

val derived_database : t -> Dc_relational.Database.t
(** The materialized IDB extents of the engine's program, derived now
    if no cite needed them yet; empty for engines built with
    {!create}. *)

val program : t -> Dc_cq.Program.t option

val derived_predicates : t -> string list
(** IDB predicate names of the program, stratum order; [[]] without a
    program. *)

val recursive_predicates : t -> string list
(** The subset of {!derived_predicates} computed by fixpoint iteration.
    Registering incremental maintenance over these is refused — see
    {!Versioned_engine.register}. *)

val citation_views : t -> Citation_view.Set.t
val policy : t -> Policy.t

val selection : t -> selection
(** The rewriting-selection mode this engine was created with (exposed
    so wrappers like {!Versioned_engine} can build per-version engines
    with identical behaviour). *)

val view_database : t -> Dc_relational.Database.t
(** Every citation view's extent, computed afresh on each call and
    cached nowhere (recorded under the [materialize] timer).  No cite
    reads it: it serves {!Explain} and test oracles. *)

val eval_cache : t -> Dc_cq.Eval.cache
(** The calling domain's evaluation cache of this engine: hash indexes
    keyed by (predicate, bound positions) {e and} compiled query plans
    keyed by the query's syntax, constants compared as typed values
    (see {!Dc_cq.Plan}).  Both kinds of entry self-invalidate against
    the current relation values by physical identity, so callers
    maintaining the database incrementally ({!Incremental}) can keep
    reusing it across deltas.  Distinct from the engine's
    rewriting-plan cache, which maps query shapes to verified
    rewritings and belongs to the view set. *)

val metrics : t -> Metrics.t
(** This engine's metrics handle: plan/leaf/eval cache hit counters,
    rewriting enumeration counters and wall-clock timers for work done
    through this engine.  {!Metrics.default} aggregates across all
    engines. *)

val merged_database : t -> Dc_relational.Database.t
(** Base relations, IDB extents and every view extent ({!view_database},
    computed afresh) in one database: what any rewriting, including a
    partial one, can be evaluated over directly.  For {!Explain} and
    test oracles. *)

type cell
(** An engine's IDB cell: its program's IDB extents, computed at most
    once, on first demand. *)

val cell : t -> cell

val refresh :
  ?ancestor:cell * Dc_relational.Delta.t -> t -> Dc_relational.Database.t -> t
(** The same engine over an updated database, in O(1) plus the size of
    [ancestor]'s changes: it builds a fresh IDB cell and computes
    nothing.  The IDB extents are derived by the first cite that reads
    them (see the note above), with this engine's per-domain cache lock
    and evaluation cache, so every refresh of one engine — the
    per-version engines of a {!Versioned_engine} — shares one cache per
    domain for that work.

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

val template : t -> Dc_cq.Query.t -> Compute.template
(** A rewriting's citation template over this engine's views, with its
    expansion: what {!cite} evaluates ({!Compute.run}).  {!Incremental}
    finds and recomputes the tuples a delta affects through these. *)

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

val pp_result : Format.formatter -> result -> unit
(** A compact human-readable summary of a result: query, rewriting and
    selection counts, tuple and citation counts, completeness and the
    enumeration stats.  One field per line. *)

val result_to_json : result -> string
(** One-line JSON object over the labeled fields: query text, rewriting
    and selected names, tuple count, the normalized result expression,
    the concrete citations ({!Fmt_citation} JSON), completeness and
    {!Dc_rewriting.Rewrite.stats_to_json} stats. *)

val cite : t -> Dc_cq.Query.t -> result
(** Plans (rewriting search, cached per query shape), selects,
    evaluates and cites.
    Each selected rewriting's expansion, computed once per plan and
    kept in the rewriting-plan cache, is evaluated over the base
    relations with {!Dc_cq.Eval.run_projected} on the variables that
    fill its view parameters ({!Compute.run}); the sorted per-rewriting
    runs are merged linearly, and each tuple's expression is built
    normalized from the distinct projections
    ({!Compute.projected_expr}).  Tuples of a single data-independent
    rewriting share its one expression and one policy evaluation, and
    every distinct leaf is resolved once per call ({!leaf_resolver}).
    The result is the one the literal composition gives:
    {!Dc_cq.Eval.run} of the rewriting over the materialized views
    ({!merged_database}), then {!Compute.tuple_expr} normalized and
    {!Policy.eval} per tuple, then the same over the [Agg]. *)

val cite_string : t -> string -> (result, string) Stdlib.result
(** Parses with {!Dc_cq.Parser.parse_query} first. *)

val resolve_leaf : t -> Cite_expr.leaf -> Citation.t
(** The engine's memoized leaf resolver (exposed for tests and for
    rendering formal expressions independently of [cite]). *)

val leaf_resolver : t -> Cite_expr.leaf -> Citation.t
(** A fresh per-call memo in front of {!resolve_leaf}: the returned
    function takes the cache lock once per distinct leaf.  Use one per
    cite or maintenance step; it never sees later data changes. *)

val tuple_citation :
  resolve:(Cite_expr.leaf -> Citation.t) ->
  t ->
  Dc_relational.Tuple.t ->
  Cite_expr.t ->
  tuple_citation
(** A tuple with its expression, which must already be normal, and
    that expression's citations under the engine's policy. *)

val aggregate :
  resolve:(Cite_expr.leaf -> Citation.t) ->
  t ->
  tuple_citation list ->
  Cite_expr.t * Citation.Set.t
(** The normalized [Agg] over the tuples' (normal) expressions and its
    citations: a result's [result_expr] and [result_citations]. *)

(** {1 Capabilities} *)

type capabilities = {
  backend : string;  (** ["engine"] or ["versioned"] *)
  supports_versions : bool;  (** [cite_at]/[commit_delta] available *)
  supports_recursion : bool;
      (** the engine carries a Datalog program with at least one
          recursive predicate *)
  shards : int;
      (** [1] from {!describe}; the server reports its worker-domain
          count here *)
}
(** What a citation backend can do, as the REPL's [:stats], the
    server's v2 [HEALTH] and the bench banners report it. *)

val pp_capabilities : Format.formatter -> capabilities -> unit
val capabilities_to_string : capabilities -> string

val capabilities_to_json : capabilities -> string
(** One-line JSON object over the four labeled fields. *)

val describe : t -> capabilities
(** Backend ["engine"], no versions, [shards = 1]. *)
