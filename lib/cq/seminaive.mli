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

    Each {!run} times under {!Dc_parallel.Metrics}' [datalog_fixpoint]
    timer, and counts every recursive stratum's fixpoint
    ([datalog_fixpoints]) and delta round ([datalog_iterations]). *)

val delta_suffix : string
(** Reserved relation-name suffix ("__delta") used for per-round delta
    extents; {!run} rejects input databases that already contain a
    relation named [p ^ delta_suffix] for a recursive predicate [p]. *)

val run : ?cache:Eval.cache -> Dc_relational.Database.t -> Stratify.t ->
  Dc_relational.Database.t
(** Raises [Invalid_argument] when an IDB predicate collides with an
    existing relation, or a delta name is taken.
    Raises {!Eval.Unknown_relation} never: body predicates absent from
    the database are treated as empty. *)

module Naive : sig
  val run : ?cache:Eval.cache -> Dc_relational.Database.t -> Stratify.t ->
    Dc_relational.Database.t
  (** Reference fixpoint: every round re-evaluates every rule of the
      stratum against the full extents until nothing changes.  Same
      result as {!run}, no delta reasoning — the differential suite and
      bench E20 compare against it. *)
end
