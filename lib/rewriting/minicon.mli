(** The MiniCon algorithm (Pottinger & Halevy).

    A MiniCon description (MCD) pairs one freshened occurrence of a view
    with the {e set} of query subgoals it must cover: whenever the
    occurrence hides a query join variable inside a view existential
    variable, every other subgoal using that variable has to be covered
    by the same occurrence, so coverage is closed under that rule.
    MCDs combine by exact cover (pairwise-disjoint coverage of all
    subgoals), which generates dramatically fewer candidates than the
    bucket product. *)

val descriptions : View.Set.t -> Dc_cq.Query.t -> Candidate.t list
(** All MCDs of the query w.r.t. the view set, deduplicated by
    (view, coverage, atom shape).  The shape keeps constants typed and
    query variables apart from constants and fresh variables: two MCDs
    are merged only when their atoms are equal up to renaming the
    fresh variables. *)
