(** Domain-sharded citation evaluation: [N] {!Engine.t} replicas over
    one immutable database and view set.

    Shard 0 is the engine handed to {!of_engine} (or created by
    {!create}); shards 1..N-1 are {!Engine.replicate}s — same data,
    same metrics registry, {e private} plan/leaf/eval caches and a
    private lock each.  A domain working its own shard therefore never
    contends with the others: this is the parallel half of the
    shard-vs-mutex model documented in {!Engine}.

    The trade-off is cache warmth: each shard pays its own plan-cache
    misses, so a workload of [Q] distinct query shapes enumerates
    rewritings up to [N × Q] times in the worst case (round-robin) and
    exactly [Q] times when the workload is partitioned ({!cite_batch}
    partitions).  Because replicas beyond the physical core count only
    add cold caches without adding parallelism, the shard count is
    clamped to {!Dc_parallel.Domain_pool.available_cores} by default —
    on a 1-core host a "4-shard" engine degrades to a single shard. *)

type t

val create :
  ?clamp:bool ->
  ?policy:Policy.t ->
  ?selection:Engine.selection ->
  ?partial:bool ->
  ?fallback_contained:bool ->
  ?pool:Dc_parallel.Domain_pool.t ->
  shards:int ->
  Dc_relational.Database.t ->
  Citation_view.t list ->
  t
(** [Engine.create] once (each view is materialized at most once, by
    whichever shard's cite reads it first), then {!of_engine}.  Raises [Invalid_argument] when [shards < 1]. *)

val of_engine : ?clamp:bool -> shards:int -> Engine.t -> t
(** Wrap an existing engine as shard 0 and add [shards - 1] replicas
    ([shards] first clamped to the core count unless [clamp:false]).
    The given engine keeps working as before — its caches become shard
    0's. *)

val shard_count : t -> int

val primary : t -> Engine.t
(** Shard 0.  Use for data-level reads (database, views) and anything
    that does not need dispatch. *)

val shard : t -> int -> Engine.t
(** [shard t i] is shard [i mod shard_count t] (any integer works). *)

val pick : t -> Engine.t
(** Round-robin over an atomic counter — safe from any thread or
    domain, including across counter overflow (the index is reduced to
    the canonical non-negative residue, so a counter that wraps past
    [max_int] keeps dispatching in range). *)

val seed_round_robin : t -> int -> unit
(** Set the round-robin counter (tests seed it near [max_int] to
    exercise overflow; not needed in normal operation). *)

val cite : t -> Dc_cq.Query.t -> Engine.result
(** [Engine.cite (pick t)]. *)

val cite_string : t -> string -> (Engine.result, string) Stdlib.result

val metrics : t -> Metrics.t
(** The registry shared by every shard (replicas share the primary's
    handle), so counters aggregate across shards. *)

val cite_batch : t -> Dc_parallel.Domain_pool.t -> Dc_cq.Query.t list ->
  Engine.result list
(** Cite a batch in parallel: the list is split into [Domain_pool.size
    pool] contiguous chunks, chunk [i] is evaluated on shard [i] (so
    each query shape is planned on exactly one shard), and results are
    returned in input order.  Determinism: equal to [List.map
    (Engine.cite _)] run sequentially. *)
