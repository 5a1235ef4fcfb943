(** A citation engine over {e every} committed version of a database —
    the paper's §3 fixity requirement made operational.

    The paper requires that a citation "bring back the data as seen at
    the time it was cited".  This layer owns a
    {!Dc_relational.Version_store.t} plus one {!Engine.t} per
    checked-out version: {!cite_at} cites against any committed
    version, and every result is stamped with the version, its commit
    timestamp and a {!Fixity} content digest, so a reader can later
    {!verify} that the cited version still hashes to what the citation
    recorded.

    {b Versions and commits.}  Version [0] is the database the engine
    was created over.  {!commit_delta} applies a
    {!Dc_relational.Delta.t} to the head through
    {!Dc_relational.Version_store.apply_head} — the single
    delta-application path — and commits the result as a new head;
    every older version stays citable forever.  Incremental
    registrations ({!register}) are re-maintained on each commit from
    the {e same} database value the store commits, so the store head
    and the registrations can never diverge.

    {b Engine cache.}  Per-version engines are built on first use and
    kept in an LRU cache bounded by [capacity] (default 4).  Building
    one is O(1) in the data: it is an {!Engine.refresh} of the template,
    so the version's IDB derivation is computed by the first cite that
    reads it (a landing-page cite of a plain view never runs the Datalog
    program), and no cite builds a view extent.  The head version's
    engine is never evicted.

    {b Derivation lineage.}  A version's IDB costs its delta, not its
    size.  Besides the LRU, the engine keeps a weak record of the IDB
    cell of every version it materialized.  A newly built per-version
    engine links its cell to the newest live one at or below its
    version, with the commit deltas between the two
    ({!Dc_relational.Version_store.delta_between}).  Its derivation then
    continues from the nearest derived cell up that chain
    ({!Engine.refresh}, {!Dc_cq.Seminaive.continue}), even when the LRU
    has long dropped that cell's engine.  The template's cell, derived
    at creation, always lives, so only the start-up derivation (and a
    version below every live cell, such as one older than the head a
    durable store was recovered at) runs from scratch.  All per-version
    engines share one metrics registry (this engine's), so cache
    counters aggregate across versions.

    {b Fixity.}  Stamps carry the version's v2 {!Fixity.digest_v2}.  It
    folds per-relation multiset hashes memoized on the store's relation
    values, and a commit carries them across its delta, so once one
    version has been digested each later version's digest costs
    O(#relations) and needs no cache.  The first v2 digest after a
    restart (recovered relations carry no hashes) is one pass over the
    data.  {!verify} also accepts untagged v1 stamps
    ({!Fixity.digest_db}, cached per version once computed).

    {b Thread safety.}  All operations are safe from any thread or
    domain.  Commits and registrations serialize among themselves, but
    nothing slow ever runs under the lock that {!cite_at} takes, so
    in-flight citations — on the head or on historical versions —
    proceed concurrently with a commit. *)

type t

type 'a stamped = {
  version : Dc_relational.Version_store.version;
  timestamp : int option;  (** the version's commit time *)
  digest : string;  (** {!Fixity.digest_v2} of the cited version *)
  result : 'a;
  from_registration : bool;
      (** served from an incremental {!register}ation rather than by a
          fresh engine evaluation *)
}
(** A citation of one version, stamped: an {!Engine.result} from
    {!cite_at}, an {!Engine.summary} from {!summary_at}. *)

type cited = Engine.result stamped

val of_engine : ?capacity:int -> Engine.t -> t
(** Wrap an existing engine as version 0 of a fresh store.  The
    engine's database, views, policy, selection and metrics registry
    carry over to every per-version engine; [capacity] (default 4,
    minimum 1) bounds the LRU engine cache.  Over an
    {!Engine.of_program} engine the EDB database becomes version 0, and
    every per-version engine derives the program's IDB extents for its
    version's EDB state, when one of its cites first needs them, by
    continuing a derived ancestor's (see "Derivation lineage" above).
    Deltas and the version store remain EDB-only — committing a delta
    that names an IDB predicate fails like any unknown relation. *)

val open_durable :
  ?capacity:int ->
  ?fsync:Dc_storage.Store.fsync ->
  ?mode:Dc_storage.Store.mode ->
  ?fresh:bool ->
  ?db:Dc_relational.Database.t ->
  dir:string ->
  (Dc_relational.Database.t -> Engine.t) ->
  (t * Dc_storage.Store.t * Dc_storage.Store.recovery option, string) result
(** Open a data directory ({!Dc_storage.Store.open_} with
    {!Fixity.digest_db}; [fsync], [mode], [fresh] and [db] as there,
    including the refusal of a directory that is already open) and
    serve it durably: every {!commit_delta} appends to the store's
    WAL {e before} the new head is published (an append failure fails
    the commit), and every {!register} is logged.

    A fresh store is initialized over [db], which becomes version 0 of
    [make db].  A recovered store is served as recovered, with [make]
    applied to its head database for the engine's configuration, and
    per-version engines, the recovered head's included, built on demand
    from that engine's template; its logged registrations are re-armed
    without being logged again, and one that no longer registers is
    skipped with a warning.  Returns the engine, the store handle (the
    caller closes it) and the recovery record ([None] for a fresh
    store).  If [make] raises, the store is closed first. *)

val head : t -> Dc_relational.Version_store.version
val versions : t -> Dc_relational.Version_store.version list

val timestamp : t -> Dc_relational.Version_store.version -> int option

val store : t -> Dc_relational.Version_store.t
(** A snapshot of the underlying store (persistent, so safe to keep). *)

val metrics : t -> Metrics.t
(** The shared registry: engine counters from every version plus
    [version_commits], [version_cache_hits/misses/evictions] and
    [registrations_maintained]. *)

val cached_versions : t -> Dc_relational.Version_store.version list
(** Versions with a currently materialized engine, MRU first (exposed
    for tests of the LRU bound). *)

val registrations : t -> string list
(** Rendered queries currently registered for incremental maintenance. *)

val engine_at :
  t -> Dc_relational.Version_store.version -> (Engine.t, string) result
(** The (LRU-cached) engine for a version, built without computing any
    of its data: its cites derive the IDB extents if they read them.
    [Error] when the version was never committed. *)

val cite_at :
  t -> Dc_relational.Version_store.version -> Dc_cq.Query.t ->
  (cited, string) result
(** Cite against a specific version.  One routine serves it and
    {!summary_at}: it takes the evaluation from the maintained
    registration when the query is registered and the version is the
    head ({!Incremental.evaluation}, answers read back from the rows
    without re-evaluating; [from_registration = true]), and from the version's
    engine otherwise ({!Engine.evaluate}), then applies one ending —
    here {!Engine.result_of}, as {!Engine.cite} does.  A registered read
    therefore equals, in every field but [from_registration], the
    unregistered cite of the same version whenever the registration's
    pinned selection is the one a fresh engine makes: always at the
    version it was registered at, and at every version under [`All] or
    for a query with at most one rewriting.  [Error] only for an
    unknown version — never an exception. *)

val summary_at :
  t -> Dc_relational.Version_store.version -> Dc_cq.Query.t ->
  (Engine.summary stamped, string) result
(** {!cite_at} with the other ending, {!Engine.summary_of}: the same
    routing, evaluation and stamp, folded into what a wire response
    carries.  Its fields equal those of the {!cite_at} result of the
    same call; no answer list and no per-tuple citation list is
    built. *)

val cite : t -> Dc_cq.Query.t -> (cited, string) result
(** [cite t q] is [cite_at t (head t) q]. *)

val template : t -> Engine.t
(** The pristine template replica per-version engines are refreshed
    from; exposes creation-time configuration (program, views, policy)
    without materializing a version. *)

val register : t -> Dc_cq.Query.t -> (unit, string) result
(** Register the query for incremental maintenance at head: subsequent
    {!commit_delta}s carry its rows across each change
    ({!Incremental}), and head-version {!cite_at}s of the same query are
    served from the registration, answering as an unregistered cite at
    the registration's version does.  The registration pins the
    rewritings selected at head (see {!cite_at}).  Any query the head
    engine cites registers, over base relations or Datalog-derived
    predicates, recursive ones included. *)

val commit_delta : t -> Dc_relational.Delta.t -> (Dc_relational.Version_store.version, string) result
(** Apply a delta to the head and commit the result as the new head,
    returning the new version.  Registrations are re-maintained from
    the same database value the store commits.  Every fallible step
    runs first — delta application, then registration maintenance —
    then the WAL append (when durable), then the publish; a failure at
    any step is an [Error] (never an exception) that leaves the head,
    the registrations and the log on the previous version.  That
    covers a delta touching an unknown relation or mismatching a
    schema, maintenance that raises, and a failed append. *)

val verify :
  t -> Dc_relational.Version_store.version -> string -> (bool, string) result
(** Does the version's content digest, under the scheme the given
    digest's tag names ({!Fixity.scheme_of}), equal the given digest?
    Untagged digests are checked as v1, [":v2"]-tagged ones as v2.
    [Error] for an unknown version or an unknown tag. *)

val digest_at :
  t -> Dc_relational.Version_store.version -> (string, string) result
(** The version's {!Fixity.digest_v2} — what {!cite_at} stamps — timed
    under the [fixity_digest] timer. *)
