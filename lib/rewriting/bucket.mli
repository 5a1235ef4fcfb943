(** The Bucket algorithm (Levy et al.; Halevy's survey, the paper's [9]).

    For each subgoal of the query, collect the view occurrences that can
    cover it.  [Naive] skips the exposure filter, so its buckets also
    hold entries that can never take part in a dependency-free
    equivalent rewriting: {!Rewrite.rewritings_under_deps} draws its
    entry pool from them.  The bucket algorithm's candidate products,
    the oracle MiniCon is tested and benchmarked against, live with the
    test oracles. *)

type level = Naive | Filtered

val buckets :
  level:level -> View.Set.t -> Dc_cq.Query.t -> Candidate.t list array
(** One bucket per body atom of the query, in body order. *)
