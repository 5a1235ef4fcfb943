(** A pool of OCaml 5 domains for chunked fan-out over immutable
    inputs.

    Unlike the systhread {!Dc_server.Worker_pool}, which interleaves
    jobs on one runtime, every worker here is a {!Domain} and runs in
    parallel with the others.  There is no work stealing: {!parallel_map}
    and {!parallel_fold} split their input into at most [size] contiguous
    chunks up front and hand one chunk to each domain, which keeps the
    split deterministic and the per-chunk data access sequential.

    The calling domain always participates: a pool of [domains = n]
    spawns [n - 1] workers and the caller runs the first chunk itself,
    then helps drain the queue before blocking.  Consequences worth
    knowing:

    - [domains = 1] spawns nothing and degrades to plain [List.map] /
      [List.fold_left] in the caller — a zero-overhead baseline;
    - fan-outs from inside a task (nested parallelism) and fan-outs
      after {!shutdown} still complete, executed by the caller;
    - tasks must not block on results of tasks queued behind them.

    {b Core detection.}  Domains beyond the physical core count buy no
    parallelism and still pay OCaml's stop-the-world minor-GC barrier,
    so on an [c]-core host a pool request of [n > c] domains is clamped
    to [c] by default — on a single core that means {e sequential}
    execution in the caller, the honest optimum.  {!available_cores}
    and {!effective} expose the detection so callers (benchmarks, the
    server) can report what actually ran.

    Thread safety: all operations may be called from any domain or
    thread concurrently. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count] read once at startup, floored at
    1: the number of domains this host can actually run in parallel. *)

val effective : requested:int -> int
(** [min requested (available_cores ())] — the domain count a clamped
    pool (or server) of width [requested] really gets.  Raises
    [Invalid_argument] when [requested < 1]. *)

type t

val create : ?clamp:bool -> domains:int -> unit -> t
(** [create ~domains ()] starts a pool of total parallelism [domains]
    ([domains - 1] spawned workers plus the caller), clamped to
    {!available_cores} unless [clamp:false] (default [true]; tests of
    the cross-domain machinery itself opt out).  Raises
    [Invalid_argument] when [domains < 1].  Each pool holds OS
    resources; call {!shutdown} when done (or use {!with_pool}). *)

val size : t -> int
(** The pool's parallelism after clamping — the width fan-outs split
    to, which may be less than the [domains] requested. *)

val shutdown : t -> unit
(** Drains queued tasks, then joins the worker domains.  Idempotent.
    Fan-outs issued after shutdown run sequentially in the caller. *)

val with_pool : ?clamp:bool -> domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val chunk : ?min_chunk:int -> chunks:int -> 'a list -> 'a list list
(** Split into at most [chunks] contiguous chunks whose sizes differ by
    at most one; [List.concat (chunk ~chunks xs) = xs].  Empty input
    gives no chunks; never produces an empty chunk.  [min_chunk]
    (default 1) additionally caps the chunk count so every chunk
    carries at least [min_chunk] items (whole input as one chunk when
    it is smaller than that): raise it when the per-item work is too
    cheap to amortize a task hand-off. *)

val run_all : t -> (unit -> 'a) list -> 'a list
(** Run the thunks in parallel across the pool (the first in the
    caller), returning results in input order.  If any thunk raises,
    the first exception (by completion order) is re-raised in the
    caller after all thunks have finished.  Every thunk runs under the
    submitting domain's {!Metrics.with_sink} scopes ({!Metrics.capture}),
    so a registry scoped at the call site also counts the work executed
    on the worker domains. *)

val parallel_map : ?min_chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map t f xs = List.map f xs], computed over at most
    [size t] chunks in parallel ([min_chunk] as in {!chunk}).  [f] must
    be safe to call from another domain (pure functions and functions
    touching only domain-safe state qualify). *)

val parallel_fold :
  ?min_chunk:int ->
  t -> fold:('acc -> 'a -> 'acc) -> init:'acc -> merge:('acc -> 'acc -> 'acc) ->
  'a list -> 'acc
(** Fold each chunk with [fold] from [init], then [merge] the per-chunk
    accumulators left to right (chunk order, deterministic) onto [init].
    [init] must be neutral for [merge] for the result to be independent
    of the chunking. *)
