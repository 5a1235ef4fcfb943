(** Conjunctive-query minimization (core computation), literally: drop
    any atom whose removal keeps the query equivalent, until none can
    go.

    A CQ is minimal when no proper sub-conjunction of its body yields an
    equivalent query.  The minimal equivalent query (the {e core}) is
    unique up to variable renaming.  The paper's rewriting set
    "{Q1,…,Qn}" is the set of {e minimal} equivalent rewritings: the
    tests check with it that every rewriting {!Dc_rewriting.Rewrite.search}
    keeps is its own core. *)

val minimize : Dc_cq.Query.t -> Dc_cq.Query.t
(** Greedily removes removable atoms until none remains.  The result is
    the core of the input. *)
