(** K-relations and annotated conjunctive-query evaluation.

    A K-database attaches an annotation from a commutative semiring K to
    every tuple; evaluating a CQ propagates annotations with
    [times] across the atoms of a binding and [plus] across the bindings
    of an output tuple — Green et al.'s semantics, and the same shape as
    the paper's citation construction (joint [·] across view atoms,
    alternative [+] across bindings). *)

open Dc_provenance

module Make (K : Semiring.S) : sig
  type t
  (** An annotated database: a support database plus annotations. *)

  val of_database :
    (string -> Dc_relational.Tuple.t -> K.t) -> Dc_relational.Database.t -> t
  (** [of_database annot db] annotates every tuple [t] of relation [r]
      with [annot r t].  Tuples annotated [K.zero] are removed from the
      support. *)

  val support : t -> Dc_relational.Database.t

  val annotation : t -> string -> Dc_relational.Tuple.t -> K.t
  (** [K.zero] for absent tuples. *)

  val eval : t -> Dc_cq.Query.t -> (Dc_relational.Tuple.t * K.t) list
  (** Annotated answer: each output tuple with its K-annotation
      [Σ_bindings Π_atoms ann(atom instance)]. *)

  val eval_annotation : t -> Dc_cq.Query.t -> Dc_relational.Tuple.t -> K.t
  (** Annotation of one output tuple ([K.zero] if not an answer). *)
end

val tuple_id : string -> Dc_relational.Tuple.t -> string
(** Canonical indeterminate name for a tuple: ["R(v1,...,vn)"].  Shared
    by tests, benchmarks and the default polynomial annotation. *)

val citation_polynomial : Dc_citation.Cite_expr.t -> Polynomial.t
(** Interprets a citation expression in ℕ[X] with one indeterminate per
    leaf, named as the leaf prints, and [·] as polynomial [×] and [+],
    [+R] and [Agg] as polynomial [+]: the semiring reading of citations
    that the paper's §2 borrows from Green et al. *)

module Poly : sig
  type t

  val of_database : Dc_relational.Database.t -> t
  (** Annotates every tuple with its own indeterminate {!tuple_id}. *)

  val eval :
    t -> Dc_cq.Query.t -> (Dc_relational.Tuple.t * Polynomial.t) list
end
