(** A bounded pool of workers behind a backpressure queue.

    Jobs are run FIFO by [workers] workers — systhreads by default
    (concurrent but interleaved on one domain), or one OCaml 5 domain
    each with [~domains:true] (parallel; an engine keeps separate
    caches per domain, see {!Dc_citation.Engine}).  It is the only code
    in [lib/] that starts domains.  The queue holds at most
    [queue_capacity] pending jobs: past that, {!submit} refuses with
    [Overloaded] instead of buffering unboundedly — the caller turns
    that into an overload error for its client.

    An exception escaping a job is logged ([datacite.worker_pool] at
    error level) and costs that job only — except the asynchronous
    runtime exceptions [Out_of_memory] and [Stack_overflow], which are
    logged and re-raised: a worker that hit them cannot be trusted to
    continue. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count] read once at startup, floored at
    1: the number of domains this host can actually run in parallel. *)

val effective : requested:int -> int
(** [min requested (available_cores ())] — the domain count a server
    (or benchmark) asking for [requested] really gets: domains beyond
    the core count buy no parallelism and still pay OCaml's
    stop-the-world minor-GC barrier.  Raises [Invalid_argument] when
    [requested < 1]. *)

type t

type submit_result =
  | Accepted
  | Overloaded  (** queue at capacity — shed load *)
  | Shutting_down  (** {!shutdown} has begun — refuse new work *)

val create : ?domains:bool -> workers:int -> queue_capacity:int -> unit -> t
(** Starts the workers immediately ([domains] defaults to [false] =
    systhreads).  Raises [Invalid_argument] when either bound is < 1. *)

val submit : t -> (unit -> unit) -> submit_result

val high_water : t -> int
(** Deepest the queue has ever been (pending jobs, not in-flight). *)

val depth : t -> int
(** Pending jobs right now (not in-flight) — the live companion to
    {!high_water}. *)

val shutdown : t -> unit
(** Graceful: refuse new submissions, let the workers drain every
    already-accepted job, then join them.  Idempotent; blocks until the
    drain completes. *)
