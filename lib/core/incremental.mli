(** Incremental citation maintenance — the paper's "citation evolution"
    challenge (§3): "how to compute citations in an incremental manner".

    A {e registration} pins a query together with its selected
    rewritings and caches the per-tuple formal citations.  Each
    rewriting is one Datalog rule ({!Compute.rule}) whose {e rows} are
    its answers, each followed by one projection on the variables that
    fill view parameters; the engine's program rules join them when
    they or a citation query read a derived predicate.  A base change
    continues that program's derivation
    ({!Dc_cq.Seminaive.continue_delta}, which carries a non-recursive
    stratum across insertions and deletions alike); only the answers
    that gained or lost a row have their citations recomputed, from
    their rows, and a citation view whose citation queries read a
    relation, base or derived, that the change touched is re-resolved
    in every cached citation that mentions it.  The engine advances
    with {!Engine.refresh}; no view extent is kept.

    Experiment E6 measures this against [Engine.refresh] + re-cite. *)

type t

val register : Engine.t -> Dc_cq.Query.t -> t
(** Evaluates once and caches. *)

val engine : t -> Engine.t
val query : t -> Dc_cq.Query.t

val tuples : t -> Engine.tuple_citation list
(** Current cached per-tuple citations, sorted by tuple. *)

val result_expr : t -> Cite_expr.t
val result_citations : t -> Citation.Set.t

val summary : t -> Engine.summary
(** The registration's current state as a wire cite carries it
    ({!Engine.summary}): one pass over the cached map in tuple order
    counts the answers and feeds their expressions to the [Agg]; no
    tuple list is built.  Equal, field for field, to the summary of
    {!to_result}.  {!Versioned_engine.summary_at} serves registered
    head-version queries from this. *)

val to_result : t -> Engine.result
(** The registration's current state packaged as an {!Engine.result}:
    the cached per-tuple citations, the aggregated result expression
    and its policy evaluation.  [rewritings] and [selected] both carry
    the registered rewritings, [stats] is zeroed except [kept] (no
    enumeration ran), [complete] is [true].  {!Versioned_engine.cite_at}
    serves registered head-version queries from this instead of
    re-citing. *)

val apply_delta : ?new_base:Dc_relational.Database.t -> t -> Dc_relational.Delta.t -> t
(** Updates the base database and the affected citations.  Raises
    [Not_found] when the delta touches a relation absent from the
    database.

    [new_base], when given, must be exactly the database the delta
    produces ({!Dc_relational.Version_store.apply_head} computes it);
    the registration then shares that value instead of re-applying the
    delta, keeping store head and registration base physically in
    step.

    The rows derive with an evaluation cache of the registration's
    own, shared by every registration [apply_delta] returns from it:
    advance one chain from one thread at a time ({!Versioned_engine}
    holds its commit lock). *)

val affected_last : t -> int
(** Number of output tuples recomputed by the last [apply_delta]
    (0 for a fresh registration); exposed for tests and benchmarks. *)
