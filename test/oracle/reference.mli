(** The pre-compilation CQ interpreter, the oracle of
    {!Dc_cq.Eval}: per-evaluation greedy atom ordering, string-map
    bindings, per-probe key allocation.  The differential suites assert
    the compiled path agrees with it on random queries, and the benches
    use it as the baseline.  It builds and keeps its own indexes
    ({!Dc_relational.Index}), so a fault in {!Dc_cq.Eval}'s caches
    cannot show on both sides of a comparison. *)

type cache
(** Indexes keyed by (predicate, bound positions), each valid while
    the database holds the relation value it was built from. *)

val make_cache : unit -> cache

val bindings :
  ?cache:cache -> Dc_relational.Database.t -> Dc_cq.Query.t ->
  Dc_cq.Eval.Binding.t list

val run :
  ?cache:cache ->
  Dc_relational.Database.t ->
  Dc_cq.Query.t ->
  (Dc_relational.Tuple.t * Dc_cq.Eval.Binding.t list) list
(** As {!Dc_cq.Eval.run}: answers ascending, each with its bindings. *)

val result :
  ?cache:cache ->
  Dc_relational.Database.t ->
  Dc_cq.Query.t ->
  Dc_relational.Relation.t

val holds : ?cache:cache -> Dc_relational.Database.t -> Dc_cq.Query.t -> bool
