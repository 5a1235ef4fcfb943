(** The citation-serving daemon: a TCP server holding one warm
    {!Dc_citation.Versioned_engine.t} and answering the line protocol of
    {!Protocol} — the paper's §3 "citations computed at the time the
    data is being cited", as an online service.

    Architecture: a single {!Reactor} thread owns every client socket —
    it multiplexes accepts, non-blocking reads and write-readiness
    flushes with [Unix.select], frames requests incrementally through
    {!Protocol.Decoder} (so clients may {e pipeline}: many requests on
    the wire before the first response, answered strictly in request
    order), and turns each framed request into a job on the bounded
    {!Worker_pool}.  Workers never touch a socket: a job fills its
    connection's ordered response slot and wakes the reactor, which
    flushes.  Backpressure is explicit at two points — a full pool
    queue or a connection past [max_pipeline] in-flight requests is
    answered with the single line [ERR {"error":"BUSY"}]
    ({!Protocol.busy_line}) instead of buffering unboundedly, and a
    connection holding more than [conn_buffer_bytes] of unflushed
    output stops being read until the client drains.  Request failures
    of any kind — parse errors, unknown views, engine exceptions,
    timeouts — cost exactly one [ERR] line on that connection; they
    never kill the connection, a worker, or the server.

    The multi-line [CITE_BATCH n] form (header then [n] query lines)
    answers [n] [OK]/[ERR] lines, resolving the head engine once for
    the whole batch — the cheapest way to push many queries through one
    connection.

    [STATS] and [HEALTH] (v1 and v2) are answered on the reactor
    thread itself, in their place in the pipeline, and take no worker:
    an operator can read a server whose workers are all busy.

    The workers are systhreads on the server's one domain, so requests
    interleave rather than run in parallel.  They share one engine per
    version, whose caches are read without a lock (see
    {!Dc_citation.Engine}): a slow cite holds up no other.

    {b Versioned serving.}  The engine handed to {!start} becomes
    version 0 of a {!Dc_citation.Versioned_engine}, and every request
    routes to it.  The v1 [CITE], [CITE_BATCH] and [CITE_PARAM] cite
    the engine of the version that is head when the worker runs them,
    unstamped and never from a registration.  [CITE_AT v] cites against
    any committed version (responses carry the version, commit
    timestamp and fixity digest).  [COMMIT_DELTA] advances the head: a
    commit publishes its version before it is acknowledged, so every
    request read after the acknowledgement cites that version or a
    later one, while requests already running finish on the version
    they started on.  [VERSIONS] lists history, [VERIFY] checks a
    digest, and [REGISTER] arms incremental maintenance so repeated
    [CITE_AT]s of the head for the same query are served from the
    maintained registration; a registered query answers as an
    unregistered one at the registration's version
    ({!Dc_citation.Versioned_engine.cite_at}).  A commit never blocks
    in-flight [CITE]/[CITE_AT]s on other engines, and a checkout
    failure (unknown version, bad delta) costs exactly one [ERR] line
    like every other request failure.

    {b What a worker builds per cite.}  [CITE], [CITE_BATCH] and
    [CITE_AT] answer with {!Dc_citation.Engine.summary} /
    {!Dc_citation.Versioned_engine.summary_at}: the cite's evaluation,
    then one fold over its answers, as the join hands them on, into the
    count, the [Agg] expression and its citations.  No answer list and
    no per-tuple citation list is built, and the policy runs once per
    cite, over the [Agg]; a registration-served [CITE_AT] folds the
    registration's rows.  The response
    line is the one {!Dc_citation.Engine.cite} /
    {!Dc_citation.Versioned_engine.cite_at} would render, byte for byte
    apart from [ms].

    Every request bumps {!Dc_citation.Metrics} ([server_requests],
    [server_errors], [server_queue_depth] high-water, and
    [server_cite]/[server_cite_param]/[server_stats] timers) on the
    engine's registry and the process default, so [STATS] serves the
    same JSON shape as [datacite cite --stats] emits. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port (see {!port}) *)
  workers : int;  (** worker-pool threads *)
  queue_capacity : int;  (** pending-request bound before load-shedding *)
  request_timeout_s : float;
      (** per-request deadline; past it the client gets
          [ERR "request timed out"] (the computation itself is not
          interrupted) *)
  max_line_bytes : int;  (** requests longer than this are refused *)
  max_pipeline : int;
      (** in-flight (unanswered) requests allowed per connection before
          further ones are shed with {!Protocol.busy_line} *)
  max_batch : int;  (** largest accepted [CITE_BATCH] count *)
  conn_buffer_bytes : int;
      (** unflushed response bytes per connection before the reactor
          stops reading it (flow control, not an error) *)
  version_cache : int;
      (** LRU bound on materialized per-version engines for [CITE_AT]
          (the head engine is never evicted); minimum 1 *)
  data_dir : string option;
      (** durable backing ({!Dc_storage.Store}): [Some dir] arms the
          write-ahead log and snapshots under [dir], recovering
          whatever [dir] already holds at {!start}; [None] (default)
          serves purely in-memory as before *)
  fsync : Dc_storage.Store.fsync;
      (** WAL sync policy with [data_dir]: [Always] (default — no
          committed delta is ever lost), [Interval s] (bounded loss
          window), or [Never] *)
  snapshot_every_s : float;
      (** background snapshot cadence with [data_dir]; [<= 0] disables
          the background thread (a drain snapshot is still written on
          {!stop}) *)
  recovery : Dc_storage.Store.mode;
      (** [Full] (default) replays the whole WAL so every version ever
          committed is citable again; [Fast] restarts from the latest
          snapshot only *)
}

val default_config : config
(** [127.0.0.1:7421], 4 workers, queue 64, 30s timeout, 64KiB lines,
    pipeline ≤ 128, batch ≤ 1024, 1MiB connection buffers, 4 cached
    version engines; durability off ([data_dir = None]; once
    armed: fsync [Always], snapshots every 300s, [Full] recovery). *)

type t

val start : ?config:config -> Dc_citation.Engine.t -> t
(** Binds, listens and returns immediately; serving happens on
    background threads.  Creating the engine before [start] validates
    its views (and derives a program's IDB extents) at startup; each
    view's extent is computed by the first request that reads it, once
    for all workers.

    With [config.data_dir = Some dir]: an empty [dir] is initialized
    (the engine's database becomes version 0 on disk); a populated one
    is {e recovered} — latest valid snapshot loaded, WAL suffix
    replayed (torn tail truncated away), registered queries re-armed,
    recovered state checked against its stored fixity digest — and the
    server resumes serving every recovered version.  Raises [Failure]
    with the storage layer's path+reason message when the data dir is
    unusable or fails verification. *)

val port : t -> int
(** The actually-bound port (useful with [port = 0]). *)

val stop : t -> unit
(** Graceful shutdown: stop accepting connections, stop reading new
    requests, drain every accepted request (each fills its response
    slot), flush responses out with a bounded grace for slow readers,
    close every client socket and join the reactor and workers.
    Idempotent — concurrent callers block until the stop completes. *)

val wait : t -> unit
(** Block until the server reaches the stopped state. *)

val stopped : t -> bool

val install_signal_handlers : t -> unit -> unit
(** Routes SIGINT and SIGTERM to an async-signal-safe stop request
    (drain in-flight, refuse new) and starts the watcher thread
    performing the actual {!stop}.  Returns a restorer that reinstates
    the previous signal behaviours — call it once the server has
    stopped (tests do). *)
