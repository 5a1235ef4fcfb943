(** The bucket algorithm's candidate products (Levy et al.; Halevy's
    survey, the paper's [9]), the oracle of
    {!Dc_rewriting.Rewrite.search}'s MiniCon cover: every pick of one
    entry per subgoal bucket ({!Dc_rewriting.Bucket.buckets}) is a
    candidate, verified by expansion equivalence, minimized by
    {!Dc_rewriting.Rewrite.minimize_rewriting} and kept unless
    equivalent to one kept before.  The product is incomplete where a
    view must cover several subgoals with one occurrence (a hidden
    join), so the tests compare it with MiniCon by inclusion, and bench
    E2 counts its candidates beside MiniCon's. *)

val search :
  level:Dc_rewriting.Bucket.level ->
  ?max_candidates:int ->
  Dc_rewriting.View.Set.t ->
  Dc_cq.Query.t ->
  Dc_rewriting.Rewrite.outcome
(** The kept rewritings, named ["<q>_rw<i>"] in enumeration order, and
    the product's stats.  [Naive] buckets skip the exposure filter,
    [Filtered] ones apply it.  Enumeration stops after [max_candidates]
    (default [100_000]) candidates, and [stats.truncated] says so. *)
