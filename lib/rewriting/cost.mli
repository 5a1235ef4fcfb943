(** Cost model for rewritings, driving the paper's [+R] = "minimum
    (estimated) size" policy and the search-space pruning called for in
    section 3 ("Calculating citations").

    The estimated size of the citation produced by a rewriting is the
    sum over its view atoms of the number of distinct citations the atom
    contributes: 1 for an unparameterized view, and the (estimated)
    number of distinct parameter valuations for a parameterized one —
    reproducing the paper's example where the citation via Q1 is
    proportional to |Family| while the one via Q2 has size 1. *)

val param_distinct_estimate :
  Dc_relational.Database.t ->
  View.t ->
  string ->
  int
(** Estimated number of distinct values of parameter [p] of the view:
    the minimum, over the base-relation columns where [p] occurs in the
    view body, of the column's distinct count.  Unknown relations
    estimate to 1.  Distinct counts come from {!Dc_relational.Stats},
    which memoizes them on the relation values, so repeated estimation
    over an unchanged snapshot costs one scan per column in all, from
    any engine or domain; this module keeps no state. *)

val param_distinct_exact : Dc_relational.Database.t -> View.t -> string -> int
(** Distinct values of the parameter in the materialized view result. *)

val atom_citation_count :
  ?exact:bool ->
  Dc_relational.Database.t ->
  View.Set.t ->
  Dc_cq.Atom.t ->
  int
(** Citations contributed by one rewriting atom: 1 for unparameterized
    views and base atoms; the product of per-parameter distinct counts
    for parameterized views (constant arguments count 1). *)

val citation_size :
  ?exact:bool ->
  Dc_relational.Database.t ->
  View.Set.t ->
  Dc_cq.Query.t ->
  int
(** Estimated size of the citation a rewriting yields: sum of
    {!atom_citation_count} over its body atoms. *)

val choose_min_size :
  ?exact:bool ->
  Dc_relational.Database.t ->
  View.Set.t ->
  Dc_cq.Query.t list ->
  Dc_cq.Query.t option
(** The rewriting with the smallest {!citation_size}; ties break toward
    the earlier rewriting.  [None] on the empty list. *)
