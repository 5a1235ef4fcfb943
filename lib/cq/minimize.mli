(** Conjunctive-query minimization (core computation).

    A CQ is minimal when no proper sub-conjunction of its body yields an
    equivalent query.  The minimal equivalent query (the {e core}) is
    unique up to variable renaming; the paper's rewriting set
    "{Q1,…,Qn}" is the set of {e minimal} equivalent rewritings, so the
    rewriter runs every candidate through this module. *)

val minimize : Query.t -> Query.t
(** Greedily removes removable atoms until none remains.  The result is
    the core of the input. *)
