(** A bounded pool of workers behind a backpressure queue.

    Jobs are run FIFO by [workers] systhreads, concurrent but
    interleaved on the domain that created the pool.  The queue holds
    at most [queue_capacity] pending jobs: past that, {!submit} refuses
    with [Overloaded] instead of buffering unboundedly — the caller
    turns that into an overload error for its client.

    An exception escaping a job is logged ([datacite.worker_pool] at
    error level) and costs that job only — except the asynchronous
    runtime exceptions [Out_of_memory] and [Stack_overflow], which are
    logged and re-raised: a worker that hit them cannot be trusted to
    continue. *)

type t

type submit_result =
  | Accepted
  | Overloaded  (** queue at capacity — shed load *)
  | Shutting_down  (** {!shutdown} has begun — refuse new work *)

val create : workers:int -> queue_capacity:int -> unit -> t
(** Starts the workers immediately.  Raises [Invalid_argument] when
    either bound is < 1. *)

val submit : t -> (unit -> unit) -> submit_result

val depth : t -> int
(** Pending jobs right now (not in-flight). *)

val shutdown : t -> unit
(** Graceful: refuse new submissions, let the workers drain every
    already-accepted job, then join them.  Idempotent; blocks until the
    drain completes. *)
