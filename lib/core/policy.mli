(** Citation-combination policies.

    The paper leaves [·], [+], [+R] and [Agg] abstract: "policies to be
    specified by the database owner".  A policy here interprets a formal
    {!Cite_expr.t} into a concrete {!Citation.Set.t}:

    - [·], [+] and [Agg] each get [Union] (collect the citations) or
      [Join] (fuse them into composite citations) — "union or join are
      natural".  A [Union] over [k] operands merges them in rounds
      ({!Citation.Set.union_all}, O(n log k)), so an [Agg] over
      thousands of distinct per-answer citations stays cheap.  Beware
      that [Join] multiplies set sizes, so choosing it for [Agg] (across
      all result tuples) is only tractable on small answers;
    - [+R] gets a {e selection} rule over the alternative rewritings:
      keep all, pick the first, or pick the alternative with the
      minimum-size citation, the paper's closing example. *)

type combiner = Union | Join

type rewriting_choice =
  | Keep_all
  | First
  | Min_size
      (** smallest evaluated citation set; ties break to the earlier
          alternative.  The engine additionally uses the {e estimated}
          variant of this rule before evaluation (see
          {!Engine.create}'s [selection]). *)

type t = {
  joint : combiner;
  alt : combiner;
  agg : combiner;
  alt_r : rewriting_choice;
}

val default : t
(** The paper's final example: union for [·], [+] and [Agg]; minimum
    size for [+R]. *)

val make :
  ?joint:combiner ->
  ?alt:combiner ->
  ?agg:combiner ->
  ?alt_r:rewriting_choice ->
  unit ->
  t

val eval :
  resolve:(Cite_expr.leaf -> Citation.t) -> t -> Cite_expr.t -> Citation.Set.t
(** Interprets the expression bottom-up; [resolve] turns a [CV(p̄)] leaf
    into its concrete citation (typically {!Citation_view.cite},
    memoized by the engine).  The expression is normal by construction
    (see {!Cite_expr.t}), so equal expressions get equal citations. *)

val to_string : t -> string
