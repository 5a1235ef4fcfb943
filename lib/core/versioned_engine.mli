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

type cited = {
  version : Dc_relational.Version_store.version;
  timestamp : int option;  (** the version's commit time *)
  digest : string;  (** {!Fixity.digest_v2} of the cited version *)
  result : Engine.result;
  from_registration : bool;
      (** served from an incremental {!register}ation rather than by a
          fresh engine evaluation *)
}

val create :
  ?policy:Policy.t ->
  ?selection:Engine.selection ->
  ?partial:bool ->
  ?fallback_contained:bool ->
  ?capacity:int ->
  ?metrics:Metrics.t ->
  Dc_relational.Database.t ->
  Citation_view.t list ->
  t
(** The given database becomes version 0.  Engine parameters are as
    {!Engine.create} and apply to every per-version engine; [capacity]
    (default 4, minimum 1) bounds the LRU engine cache. *)

val create_program :
  ?policy:Policy.t ->
  ?selection:Engine.selection ->
  ?partial:bool ->
  ?fallback_contained:bool ->
  ?capacity:int ->
  ?metrics:Metrics.t ->
  ?views:Citation_view.t list ->
  Dc_relational.Database.t ->
  Dc_cq.Program.t ->
  t
(** {!create} over a Datalog program (see {!Engine.of_program}): the
    EDB database becomes version 0; every per-version engine derives
    the program's IDB extents for its version's EDB state, when one of
    its cites first needs them, by continuing a derived ancestor's (see
    "Derivation lineage" above).  Deltas and
    the version store remain EDB-only — committing a delta that names
    an IDB predicate fails like any unknown relation. *)

val of_engine :
  ?capacity:int -> ?store:Dc_relational.Version_store.t -> Engine.t -> t
(** Wrap an existing engine as version 0 of a fresh store.  The
    engine's database, views, policy, selection and metrics registry
    carry over to every per-version engine.  When [store] is given
    (crash recovery), the versioned engine serves {e that} store
    instead — per-version engines, including the recovered head's, are
    built on demand from the given engine's template. *)

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
    applied to its head database for the engine's configuration (as
    {!of_engine} [~store]); its logged registrations are re-armed
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

val capacity : t -> int

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
(** Cite against a specific version.  Citing the head of a registered
    query is served from the maintained registration
    ([from_registration = true]) without re-evaluating.  [Error] only
    for an unknown version — never an exception. *)

val cite : t -> Dc_cq.Query.t -> (cited, string) result
(** [cite t q] is [cite_at t (head t) q]. *)

val template : t -> Engine.t
(** The pristine template replica per-version engines are refreshed
    from; exposes creation-time configuration (program, views, policy)
    without materializing a version. *)

val register : t -> Dc_cq.Query.t -> (unit, string) result
(** Register the query for incremental maintenance at head: subsequent
    {!commit_delta}s update its cached citations by delta rules, and
    head-version {!cite_at}s of the same query are served from the
    registration.

    {b Derived-predicate guard.}  [Error] — registration refused, no
    state changed — when the query, a selected rewriting, or the
    definition of a citation view those use reads a predicate derived
    by the engine's Datalog program.  Deltas name base relations only,
    so such a registration could not be maintained and would go stale
    silently; recursive predicates would additionally need per-delta
    fixpoint re-iteration.  Cite after each commit instead (per-version
    engines derive IDB extents, continuing an ancestor's). *)

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

val describe : t -> Engine.capabilities
(** Backend ["versioned"], with versions supported, recursion as the
    template engine's program has it, and [shards = 1]. *)

val pp : Format.formatter -> t -> unit
