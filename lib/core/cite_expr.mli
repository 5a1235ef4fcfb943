(** The abstract citation algebra — the paper's formal semantics.

    A citation expression is built from [CV(p̄)] leaves (the citation of
    view V at parameter valuation p̄) with four abstract operators:
    joint use [·] (Definition 2.1), alternative bindings [+]
    (Definition 2.2), alternative rewritings [+R], and result-level
    aggregation [Agg].  The paper stresses that this object is "a formal
    semantics, not a means of computation": it is what {!Compute}
    produces and what a {!Policy} interprets. *)

type leaf = {
  view : string;  (** view name *)
  params : (string * Dc_relational.Value.t) list;
      (** parameter valuation, in the view's parameter order; empty for
          unparameterized views *)
}

(** An expression in normal form: no operator node has a child of its
    own operator, none has exactly one child, and every node's children
    are distinct and sorted by {!compare}.  Two expressions that denote
    the same tree up to flattening, singleton wrappers, duplicates and
    order are therefore one value.  The type is private, so only the
    constructors below build it; callers pattern-match it. *)
type t = private
  | Leaf of leaf
  | Joint of t list  (** [·] *)
  | Alt of t list  (** [+] *)
  | AltR of t list  (** [+R] *)
  | Agg of t list

val leaf : view:string -> params:(string * Dc_relational.Value.t) list -> t

val joint : t list -> t
(** [·] of the operands, normalized as one node over normal children: a
    child of the same operator is flattened into it, the operands are
    deduplicated and sorted, and a single operand is returned unwrapped.
    Building bottom-up therefore costs one pass per node.  An empty
    operand list is kept as the empty node.  {!alt}, {!alt_r} and
    {!agg} do the same for their operators. *)

val alt : t list -> t
val alt_r : t list -> t
val agg : t list -> t

val leaves : t -> leaf list
(** Distinct leaves, sorted. *)

val size : t -> int
(** Number of distinct leaves — the "size of the citation" the paper's
    §3 worries about. *)

val equal : t -> t -> bool
(** [compare a b = 0]: equal up to the normal form's laws. *)

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints in the paper's style, e.g.
    [(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)]. *)

val to_string : t -> string
