(** Cost model for rewritings, driving the paper's [+R] = "minimum
    (estimated) size" policy and the search-space pruning called for in
    section 3 ("Calculating citations").

    The estimated size of the citation produced by a rewriting is the
    sum over its view atoms of the number of distinct citations the atom
    contributes: 1 for an unparameterized view, and the (estimated)
    number of distinct parameter valuations for a parameterized one —
    reproducing the paper's example where the citation via Q1 is
    proportional to |Family| while the one via Q2 has size 1. *)

val citation_size :
  ?exact:bool ->
  Dc_relational.Database.t ->
  View.Set.t ->
  Dc_cq.Query.t ->
  int
(** Estimated size of the citation a rewriting yields: the sum over its
    view atoms of the distinct citations each contributes (1 for an
    unparameterized view, the estimated or, with [exact], the counted
    number of parameter valuations for a parameterized one; 0 for a base
    atom). *)

val choose_min_size :
  ?exact:bool ->
  Dc_relational.Database.t ->
  View.Set.t ->
  Dc_cq.Query.t list ->
  Dc_cq.Query.t option
(** The rewriting with the smallest {!citation_size}; ties break toward
    the earlier rewriting.  [None] on the empty list. *)
