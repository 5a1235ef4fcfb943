(** The paper's Definitions 2.1 and 2.2, written literally over full
    bindings: the oracle of {!Dc_citation.Compute}'s projected
    computation.  Given a rewriting [Q'] of [Q] over citation views and
    a binding [B] yielding tuple [t]:

    - Definition 2.1: [cite(t,Q,Q',V,B) = F_V1(CV1(B1)) · … · F_Vn(CVn(Bn))]
      — {!binding_expr} builds the [Joint] of one leaf per view atom,
      each leaf fixing the parameter valuation [Bi];
    - Definition 2.2: [cite(t,Q,Q',V) = Σ_{B∈β_t} cite(t,Q,Q',V,B)] —
      {!tuple_expr_for_rewriting} wraps the per-binding expressions in
      [Alt];
    - multiple rewritings combine under [+R] ({!tuple_expr});
    - the query answer aggregates per-tuple citations under [Agg]
      ({!result_expr}).

    Base (non-view) atoms in a partial rewriting contribute no leaf.
    Each builds the literal tree, not normalized: compare it after
    {!Raw_expr.normalize}. *)

val binding_expr :
  Dc_citation.Citation_view.Set.t ->
  Dc_cq.Query.t ->
  Dc_cq.Eval.Binding.t ->
  Raw_expr.t

val tuple_expr_for_rewriting :
  Dc_citation.Citation_view.Set.t ->
  Dc_cq.Query.t ->
  Dc_cq.Eval.Binding.t list ->
  Raw_expr.t

val tuple_expr :
  Dc_citation.Citation_view.Set.t ->
  (Dc_cq.Query.t * Dc_cq.Eval.Binding.t list) list ->
  Raw_expr.t

val result_expr : Raw_expr.t list -> Raw_expr.t
