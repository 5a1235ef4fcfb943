(** Incremental citation maintenance — the paper's "citation evolution"
    challenge (§3): "how to compute citations in an incremental manner".

    A {e registration} pins a query together with its selected
    rewritings (each with its expansion over the base schema,
    {!Engine.template}) and caches the per-tuple formal citations.  When
    the base database changes by a {!Dc_relational.Delta.t}, the
    registration is updated by delta evaluation instead of
    recomputation:

    + the affected output tuples of each rewriting are those its
      expansion derives with one body atom pinned to an inserted base
      tuple (over the new base) or a deleted one (over the old base),
      one pass per occurrence;
    + only the affected tuples have their binding sets — and hence their
      citation expressions — recomputed, through the expansions of the
      rewritings pinned to each tuple; every other cached citation is
      reused;
    + the engine advances with {!Engine.refresh}.  No view extent is
      kept or maintained.

    Experiment E6 measures this against [Engine.refresh] + re-cite. *)

type t

val register : Engine.t -> Dc_cq.Query.t -> t
(** Evaluates once and caches. *)

val engine : t -> Engine.t
val query : t -> Dc_cq.Query.t
val selected : t -> Dc_cq.Query.t list

val tuples : t -> Engine.tuple_citation list
(** Current cached per-tuple citations, sorted by tuple. *)

val result_expr : t -> Cite_expr.t
val result_citations : t -> Citation.Set.t

val to_result : t -> Engine.result
(** The registration's current state packaged as an {!Engine.result}:
    the cached per-tuple citations, the aggregated result expression
    and its policy evaluation.  [rewritings] and [selected] both carry
    the registered rewritings, [stats] is zeroed except [kept] (no
    enumeration ran), [complete] is [true].  {!Versioned_engine} serves
    registered head-version queries from this instead of re-citing. *)

val apply_delta : ?new_base:Dc_relational.Database.t -> t -> Dc_relational.Delta.t -> t
(** Updates the base database and the affected citations.  Raises
    [Not_found] when the delta touches a relation absent from the
    database.

    [new_base], when given, must be exactly the database the delta
    produces ({!Dc_relational.Version_store.apply_head} computes it);
    the registration then shares that value instead of re-applying the
    delta, keeping store head and registration base physically in
    step.

    Affected tuples are found through base relations only:
    {!Versioned_engine.register} refuses any registration whose
    rewritings read Datalog-derived predicates, since no delta names
    them. *)

val affected_last : t -> int
(** Number of output tuples recomputed by the last [apply_delta]
    (0 for a fresh registration); exposed for tests and benchmarks. *)
