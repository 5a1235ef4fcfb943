(** Incremental citation maintenance — the paper's "citation evolution"
    challenge (§3): "how to compute citations in an incremental manner".

    {b A registration is its rows.}  {!register} plans the query as a
    cite does ({!Engine.evaluate}, whose answers it never folds) and
    keeps what the cite would evaluate: the metadata (the rewritings, the selected ones, completeness and the
    search's stats) and, as one Datalog rule per evaluated template
    ({!Compute.rule}) — a selected rewriting's, the contained
    fallback's, or the query's own, whichever the cite used — the
    template's {e rows}: each answer followed by one projection on the
    variables that fill view parameters.  The engine's program rules
    join them when they or a citation query read a derived predicate.
    No per-answer citation is kept.

    A base change continues that program's derivation
    ({!Dc_cq.Seminaive.continue_delta}, which carries a non-recursive
    stratum across insertions and deletions alike), and the engine
    advances with {!Engine.refresh}, whose fresh leaf cache resolves
    every citation against the new data; no view extent is kept.  A
    change to a relation a citation query reads thus needs no pass of
    its own.

    {b Reading it back.}  {!evaluation} supplies each template's
    answers as {!Engine.evaluate} does, deferred: called, they read the
    rule's rows in {!Dc_relational.Relation.scan} order and hand each
    answer on, grouped with its projections, as the next answer's first
    row comes up — {!Compute.fold}'s form and order, no list of
    answers built.  It hands them, with the stored metadata, to the
    endings {!Engine.cite} and {!Engine.summary} use
    ({!Engine.result_of}, {!Engine.summary_of}), so a registration
    answers as an unregistered cite does, field for field.

    {b A registration pins its selection.}  The templates are chosen
    once, at registration.  Under [`Min_estimated_size] or
    [`Min_exact_size] with several rewritings, a fresh engine over a
    later version may select differently; the registration keeps the
    rewriting it chose, as the cite it was registered from did.

    Experiment E6 measures this against [Engine.refresh] + re-cite. *)

type t

val register : Engine.t -> Dc_cq.Query.t -> t
(** Plans as a cite does and derives the rows. *)

val engine : t -> Engine.t
(** The engine over the registration's current database. *)

val query : t -> Dc_cq.Query.t

val evaluation : t -> Engine.evaluation
(** The registration's current state as an evaluation: the metadata of
    the cite it was registered from, with runs whose answers are read
    back from the rows when an ending calls them, under no lock (a
    vacuous template, which has no rule, has no run).  Either ending
    of it equals the same ending of {!Engine.evaluate} over {!engine}
    whenever the selection is unchanged: always at registration time,
    and at any time under [`All] or for a query with at most one
    rewriting. *)

val to_result : t -> Engine.result
(** [Engine.result_of (engine reg) (query reg) (evaluation reg)]. *)

val apply_delta : ?new_base:Dc_relational.Database.t -> t -> Dc_relational.Delta.t -> t
(** Continues the rows across the delta and refreshes the engine.
    Every leaf an inserted row cites is resolved through the refreshed
    engine, so a delta whose new citations cannot be computed raises
    here, where {!Versioned_engine.commit_delta} refuses it, rather
    than at every later read; no citation is kept.  Raises [Not_found]
    when the delta touches a relation absent from the database.

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
(** Number of distinct answers whose rows the last [apply_delta]
    changed (0 for a fresh registration); exposed for tests and
    benchmarks. *)
