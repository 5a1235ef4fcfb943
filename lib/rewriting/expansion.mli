(** Expansion of rewritings back to the base schema.

    A rewriting is a conjunctive query whose body atoms reference view
    names (and, for {e partial} rewritings, base predicates).  Its
    expansion replaces every view atom with the view's body, freshening
    the view's existential variables per occurrence and unifying the
    view's head with the atom's arguments.  Equivalence of a candidate
    rewriting with the original query is judged on expansions. *)

val expand :
  View.Set.t -> Dc_cq.Query.t -> (Dc_cq.Query.t * Dc_cq.Subst.t) option
(** Expansion of a whole rewriting over the base schema, with the
    substitution head unification induced on the rewriting's own
    variables: applied to a rewriting variable it gives the term that
    stands for it in the expansion (itself, another rewriting variable
    it was equated with, or a constant).  The expansion's head is the
    rewriting's head under that substitution, and its answers are the
    rewriting's answers over the views' extents.  [None] when some atom
    fails to unify with its view's head (such a rewriting is vacuous:
    it returns no answers). *)

val is_equivalent_rewriting :
  ?deps:Dc_cq.Dependency.t list ->
  View.Set.t ->
  Dc_cq.Query.t ->
  Dc_cq.Query.t ->
  bool
(** [is_equivalent_rewriting views q r] — does the expansion of [r]
    define the same function as [q]?  With [deps], equivalence is
    tested modulo the dependencies via {!Dc_cq.Chase}. *)
