(** Citation expressions as plain trees, and the literal whole-tree
    normalizer: the oracle of {!Dc_citation.Cite_expr}'s constructors,
    which normalize one node at a time as they build.  {!Definitions}
    writes the paper's definitions over this type, so a fault in those
    constructors cannot show on both sides of a comparison. *)

type t =
  | Leaf of Dc_citation.Cite_expr.leaf
  | Joint of t list
  | Alt of t list
  | AltR of t list
  | Agg of t list

val normalize : t -> t
(** Flattens nested applications of the same operator, drops singleton
    wrappers, deduplicates and sorts operands, at every level.  Two
    trees denoting the same expression up to those laws normalize
    identically. *)

val compare : t -> t -> int
(** The order {!Dc_citation.Cite_expr.compare} defines, written again
    over plain trees: leaves by view, then parameters; operators by
    their children, lexicographically; then by operator. *)

val of_expr : Dc_citation.Cite_expr.t -> t
(** Reads an expression back as a tree, node for node. *)

val to_expr : t -> Dc_citation.Cite_expr.t
(** Rebuilds a tree through the constructors.  On a {!normalize}d tree
    they have nothing left to do, so [of_expr (to_expr (normalize e))]
    is [normalize e] node for node; the tests check that too. *)
