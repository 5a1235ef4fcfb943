(** Engine observability: monotonic counters and timers.

    A registry ({!t}) holds named counters and timers.  The process-wide
    {!default} registry aggregates everything; each
    {!Dc_citation.Engine.t} also carries its own handle so cache
    behaviour can be inspected per engine.  Every layer records here
    directly with {!record} and {!record_time}: index builds
    ({!Dc_relational.Index}), evaluation caches, containment checks and
    Datalog fixpoints ({!Dc_cq}), rewriting enumeration
    ({!Dc_rewriting.Rewrite}), the WAL, snapshots and recovery
    ({!Dc_storage}), and the engines and server above them.  Events
    reach [default] plus every registry in scope through {!with_sink}.
    The module lives in [dc_parallel], below all of them;
    [Dc_citation.Metrics] is an alias of it.

    Counters are monotonic: nothing but {!reset} ever decreases one.
    Timers use the monotonic clock ({!Dc_clock.Monotonic}), so recorded
    durations are immune to wall-clock steps.

    {b Concurrency: one shared cell per name.}  A registry holds exactly
    one counter per name, an atomic int, and one timer per name, two
    atomic ints (total nanoseconds and calls), shared by every thread
    and domain.  {!record}, {!incr}, {!add_time}, {!record_max} and
    {!record_time} find the cell without a lock and update it
    atomically, so no event is lost whatever threads or domains record
    together.  The only lock is the registry's, taken by a name's first
    use to publish its cell.  Reads ({!count}, {!counters}, {!timer},
    {!timers}, {!pp}, {!to_json}) are atomic per cell and exact once
    the writers are done.  {!reset} zeroes every cell and assumes
    quiescence.

    {b Scopes are per domain.}  Each domain keeps the set of registries
    in scope on it, each with the number of {!with_sink} calls for it
    still open on any of the domain's threads.  A scope one systhread
    opens therefore also catches what another thread of the domain
    records while it is open, and it closes when the last of them
    leaves.  The server's worker threads all scope the same registry
    (the {!Dc_citation.Versioned_engine.metrics} that every version's
    engine shares), so that sharing is harmless.  Scopes never cross
    domains: a spawned domain starts with none, and one that should
    record into [m] opens its own [with_sink m].  (An engine does this
    on every call, so its registry sees work from whichever domain
    cites it.) *)

type t

val create : unit -> t
(** A fresh registry.  Every well-known counter reads 0 until first
    recorded. *)

val default : t
(** The process-wide registry.  Every recorded event lands here. *)

(** The well-known counter names. *)
module Key : sig
  val eval_index_builds : string
  val eval_cache_hits : string
  val eval_cache_misses : string

  val plan_compiles : string
  (** Query compilations by {!Dc_cq.Eval}'s plan cache (a miss, or a
      cached plan invalidated by database evolution).  Compilation time
      accumulates under the [plan_compile] timer. *)

  val eval_plan_hits : string
  (** Evaluations served by an already-compiled, still-valid plan — the
      warm citation hot path.  Distinct from {!plan_cache_hits}, which
      counts the rewriting-policy plan cache in {!Dc_citation.Engine}. *)

  val leaf_cache_hits : string
  val leaf_cache_misses : string
  val plan_cache_hits : string
  val plan_cache_misses : string
  val rewriting_candidates : string
  val rewriting_verified : string
  val rewriting_kept : string
  val containment_checks : string

  val engine_lock_waits : string
  (** Times an engine's cache lock was found already held and had to be
      waited for — the direct measure of hot-path contention between
      the threads (the server's workers) sharing one engine. *)

  val server_requests : string
  (** Request lines received by the citation server (all commands,
      well-formed or not). *)

  val server_errors : string
  (** Requests answered with an [ERR] line (parse failures, engine
      errors, overload rejections, timeouts). *)

  val server_queue_depth : string
  (** High-water mark of the server's worker-pool queue (maintained
      with {!record_max}, so still monotonic between resets). *)

  val server_busy_sheds : string
  (** Requests shed with the [BUSY] line instead of queueing — the
      pending-request queue or a connection's pipeline bound was full.
      A subset of {!server_errors}. *)

  val server_batches : string
  (** [CITE_BATCH] requests executed (each answering many queries
      against one head engine). *)

  val version_commits : string
  (** Deltas committed through a {!Dc_citation.Versioned_engine}. *)

  val version_cache_hits : string
  (** [cite_at] requests served by an already-built per-version
      engine. *)

  val version_cache_misses : string
  (** [cite_at] requests that had to check out a version and build its
      engine. *)

  val version_cache_evictions : string
  (** Per-version engines dropped by the versioned engine's LRU bound. *)

  val registrations_maintained : string
  (** Incremental registrations updated across [commit_delta] calls
      (one count per registration per commit). *)

  val wal_appends : string
  (** Records appended to the durable store's write-ahead log (commits
      and registrations). *)

  val wal_fsyncs : string
  (** fsync(2) calls issued by the WAL writer — [Always] makes this
      track {!wal_appends} under serial load, while group commit keeps
      it below {!wal_appends} under concurrent load; [Interval]/[Never]
      keep it far below.  The time spent is under the [wal_fsync]
      timer. *)

  val wal_group_commits : string
  (** fsyncs that covered more than one [Always] append — concurrent
      committers coalesced into a single barrier by the WAL's group
      commit. *)

  val wal_close_fsync_failures : string
  (** Final fsyncs that failed while closing the WAL.  Close cannot
      return an error, so each failure is logged and counted here: a
      nonzero count means the last appends may not be on disk. *)

  val snapshots_written : string
  (** Binary snapshots written (background cadence, graceful drain, or
      data-dir initialization). *)

  val recovery_replayed_deltas : string
  (** Committed deltas replayed from the WAL during crash recovery
      (time under the [recovery_replay] timer). *)

  val datalog_fixpoints : string
  (** Recursive-stratum fixpoints run to completion by
      {!Dc_cq.Seminaive} (time under the [datalog_fixpoint] timer;
      the engine's full derivations also time under [derive]). *)

  val datalog_iterations : string
  (** Delta-iteration rounds across all recursive-stratum fixpoints —
      [datalog_iterations / datalog_fixpoints] is the mean rounds to
      converge. *)

  val datalog_scratch_derivations : string
  (** Program derivations {!Dc_cq.Seminaive} ran from empty extents
      ([Seminaive.run]). *)

  val datalog_continued_derivations : string
  (** Program derivations continued from a prior fixpoint and the net
      change of the database since it ([Seminaive.continue]): a
      refreshed engine's IDB, derived from its nearest derived
      ancestor's. *)

  val datalog_rederived_strata : string
  (** Strata of continued derivations re-derived from empty extents,
      because a relation they read lost tuples, or changed under
      negation. *)

  val stats_column_scans : string
  (** Whole-relation passes counting distinct values: a
      {!Dc_relational.Relation.distinct} column of a value with no
      counted ancestor (a CSV load, a query result, a re-derived
      extent), or a {!Dc_relational.Relation.distinct_count} over
      several columns.  A relation value made by [insert]/[delete] from
      a counted one carries its counts, so commits leave this flat. *)

  val eval_scan_orders : string
  (** Sorted copies of an extent built by
      {!Dc_relational.Relation.scan_by}: a compiled plan whose first
      step scans a relation that binds the head's leading columns at
      positions other than a column prefix iterates it in head order.
      The copy is memoized on the relation value, so repeated cites at
      one version, and every engine reading that value, build it
      once. *)

  val eval_block_sorts : string
  (** Blocks of equal head prefix that {!Dc_cq.Eval.run} or
      {!Dc_cq.Eval.run_projected} found out of order and sorted: an
      emission came in smaller than the one before it.  Every other
      block is grouped as it arrives, unsorted.  A plan whose
      {!Dc_cq.Plan.head_prefix} is [0] is one block. *)

  val all : string list
  (** Every key above, in canonical display order. *)
end

val incr : ?by:int -> t -> string -> unit
(** Add [by] (default 1) to a counter of [t]. *)

val count : t -> string -> int
(** A counter's value; [0] for a counter never recorded. *)

val counters : t -> (string * int) list
(** All counters in display order: the well-known keys first (always
    present), then dynamic names in first-use order. *)

val add_time : t -> string -> float -> unit
(** Accumulate [seconds] under a timer name and bump its call count. *)

val timer : t -> string -> float * int
(** [(total_seconds, calls)]; [(0., 0)] for an unknown timer. *)

val timers : t -> (string * (float * int)) list
(** All timers in first-use order. *)

val reset : t -> unit
(** Zero every counter and timer (the only non-monotonic operation).
    Call at quiescence: concurrent writers may race individual
    zeroes. *)

val with_sink : t -> (unit -> 'a) -> 'a
(** Route events recorded {e on this domain} while the callback runs
    into [t] as well as {!default}: events from any of the domain's
    threads, while at least one of them is inside [with_sink t].
    Nests; a registry already in scope is counted once.  Domains
    spawned inside the callback do not inherit the scope; each opens
    its own (see the module note). *)

val record : ?by:int -> string -> unit
(** Increment a counter on {!default} and every registry in scope on
    this domain. *)

val record_max : string -> int -> unit
(** Raise a counter to [v] if it is below it, on {!default} and every
    registry in scope on this domain: a monotonic high-water mark.  Do
    not mix it with {!record} on one key. *)

val record_time : string -> (unit -> 'a) -> 'a
(** Time the callback (monotonic clock) and charge it to {!default} and
    every registry in scope on this domain, even when it raises. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump: one [name = value] line per counter, then one
    [name: total ms / calls] line per timer. *)

val to_json : t -> string
(** [{"counters":{...},"timers":{"name":{"ms":…,"calls":…},…}}] — a
    single line, stable key order, suitable for BENCH logs. *)
