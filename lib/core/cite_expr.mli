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

type t =
  | Leaf of leaf
  | Joint of t list  (** [·] *)
  | Alt of t list  (** [+] *)
  | AltR of t list  (** [+R] *)
  | Agg of t list

val leaf : view:string -> params:(string * Dc_relational.Value.t) list -> t
val joint : t list -> t
val alt : t list -> t
val alt_r : t list -> t
val agg : t list -> t

val normalize : t -> t
(** Flattens nested applications of the same operator, drops singleton
    wrappers, deduplicates and sorts operands.  Two expressions denoting
    the same tree up to those laws normalize identically. *)

val normalize_node : t -> t
(** [normalize] of an expression whose children are already normal:
    only the root is flattened, deduplicated and sorted, so building a
    normal expression bottom-up costs one pass per node instead of
    re-normalizing every subtree at every level. *)

val leaves : t -> leaf list
(** Distinct leaves, sorted. *)

val size : t -> int
(** Number of distinct leaves — the "size of the citation" the paper's
    §3 worries about. *)

val node_count : t -> int
(** Total operator+leaf count; measures expression blow-up (E3). *)

val equal : t -> t -> bool
(** Equality after {!normalize}. *)

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints in the paper's style, e.g.
    [(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)]. *)

val to_string : t -> string

val to_polynomial : t -> Dc_provenance.Polynomial.t
(** Interprets the expression in ℕ[X] with one indeterminate per leaf
    and both [+]-like operators as polynomial [+]: the semiring reading
    of citations that §2 borrows from Green et al. *)
