(** The naive Datalog fixpoint, the oracle of {!Dc_cq.Seminaive}:
    stratum by stratum ({!Dc_cq.Stratify}), every round evaluates every
    rule against the full extents ({!Dc_cq.Eval.result}, the kernel
    semi-naive evaluation runs on), negated atoms filter the positive
    body's bindings, and rounds stop when no extent grows.  No delta
    reasoning: the differential suites and bench E20 compare
    {!Dc_cq.Seminaive.run} against it. *)

val run :
  ?cache:Dc_cq.Eval.cache -> Dc_relational.Database.t -> Dc_cq.Stratify.t ->
  Dc_relational.Database.t
(** The input database plus one relation per IDB predicate, each named
    and shaped as {!Dc_cq.Seminaive.run} names and shapes it. *)
