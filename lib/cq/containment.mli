(** Conjunctive-query containment and equivalence (Chandra–Merlin).

    [Q1 ⊆ Q2] (every database's answer to [Q1] is included in its answer
    to [Q2]) holds iff there is a homomorphism from [Q2] to [Q1].
    Parameters are ignored throughout, per the paper ("In the rewritings,
    parameters are ignored"). *)

val contained : Query.t -> Query.t -> bool
(** [contained q1 q2] is [true] iff [q1 ⊆ q2].  Each call counts under
    {!Dc_parallel.Metrics.Key.containment_checks} ({!equivalent}
    counts two). *)

val equivalent : Query.t -> Query.t -> bool

val witness : Query.t -> Query.t -> Subst.t option
(** The containment-witnessing homomorphism [q2 → q1], if any. *)

val canonical_database : Query.t -> Dc_relational.Database.t * Dc_relational.Tuple.t
(** The frozen (canonical) database of a query: one tuple per body atom
    with variables frozen to string constants ["?v"], plus the frozen
    head tuple.  Exposed for tests and for didactic value; [contained]
    uses the direct homomorphism search. *)
