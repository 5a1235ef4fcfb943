(** Bottom-up evaluation of stratified Datalog programs.

    Strata run in order.  A non-recursive stratum evaluates each of its
    rules once; a recursive stratum runs semi-naive delta iteration:
    each IDB predicate [P] of the stratum keeps its full extent under
    its own name and the last round's newly derived tuples under
    [P ^ delta_suffix], and every round evaluates, for every rule and
    every occurrence of a same-stratum predicate in its body, the
    variant with that occurrence redirected to the delta relation —
    so each round's joins touch only valuations that use at least one
    new tuple.  Iteration stops when a round derives nothing new.

    Every rule body — original or delta variant — is compiled and
    executed through {!Plan}/{!Eval}, so fixpoints run on the same
    slot-register kernel as ordinary conjunctive queries.  Negated
    literals (always bound to strictly earlier strata) are applied as a
    membership filter over the positive body's bindings.

    Evaluation never mutates the input database: the result is the
    input plus one relation per IDB predicate.

    {b One loop, two starts.}  Every stratum, recursive or not, runs
    the same loop: a {e seed round}, then delta rounds until nothing
    new is derived.  {!run} starts each stratum from empty extents, with
    the rules themselves as the seed round.  {!continue} starts from a
    prior fixpoint: a stratum whose inputs did not change keeps its
    prior extents; one whose changed inputs are all read positively
    starts from its prior extents, and its seed round evaluates, for
    every rule and every positive occurrence of a changed lower
    relation [L], the variant with that occurrence redirected to
    [L ^ delta_suffix], which holds [L]'s new tuples.  A non-recursive
    stratum continues across deletions too: the same variants over
    [L]'s lost tuples, evaluated over the inputs as they were (read
    from the prior derivation's database), find the
    prior tuples that lost a derivation; the loop starts without them,
    and its seed round re-derives each through its rules pinned to it
    (a [p ^ delta_suffix] atom over the head).  Any other stratum (a
    recursive one whose input lost tuples, or one reading a changed
    input under negation) is re-derived from empty extents over the
    already updated strata below it.  A continued stratum's net change
    is the change for the strata above; a re-derived stratum counts as
    changed in every way.

    Each {!run} or {!continue} times under {!Dc_parallel.Metrics}'
    [datalog_fixpoint] timer, counts itself ([datalog_scratch_derivations]
    or [datalog_continued_derivations]), every recursive stratum's
    fixpoint ([datalog_fixpoints]) and delta round
    ([datalog_iterations]), and every stratum a continuation re-derives
    ([datalog_rederived_strata]). *)

val run : ?cache:Eval.cache -> Dc_relational.Database.t -> Stratify.t ->
  Dc_relational.Database.t
(** Raises [Invalid_argument] when an IDB predicate collides with an
    existing relation, or a delta name is taken.
    Raises {!Eval.Unknown_relation} never: body predicates absent from
    the database are treated as empty. *)

val continue :
  ?cache:Eval.cache ->
  prior:Dc_relational.Database.t ->
  changes:Dc_relational.Delta.t ->
  Dc_relational.Database.t ->
  Stratify.t ->
  Dc_relational.Database.t
(** [continue ~prior ~changes db s] is [run db s], computed from a
    prior derivation: [prior] is the database [run db0 s] (or a
    [continue] to [db0]) returned for some database [db0] — its inputs
    as well as its IDB extents — and [changes] must be the net change
    from [db0] to [db]: every tuple whose membership differs, as an
    [Insert] when [db] has it and a [Delete] when [db0] had it
    ({!Dc_relational.Delta.net}, which the citation engine and
    incremental maintenance pass).  A continuation reads from [prior]
    the IDB extents it keeps and, where a stratum loses tuples, the
    changed relations as they were in [db0]; nothing else of [prior]
    is read, so with empty [changes] its IDB extents suffice.  A
    stratum whose predicate [prior] lacks is derived from empty
    extents.  Raises like {!run}. *)

val continue_delta :
  ?cache:Eval.cache ->
  prior:Dc_relational.Database.t ->
  changes:Dc_relational.Delta.t ->
  Dc_relational.Database.t ->
  Stratify.t ->
  Dc_relational.Database.t * Dc_relational.Delta.t
(** {!continue}'s database, with the net change of every IDB predicate
    from [prior]: a re-derived stratum's is the difference of its
    extents. *)
