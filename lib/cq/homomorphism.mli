(** Homomorphisms between conjunctive queries.

    A homomorphism from query [src] to query [dst] is a substitution [h]
    on the variables of [src] such that [h] maps every body atom of
    [src] to some body atom of [dst] and maps the head of [src] to the
    head of [dst] (term by term).  Constants only map to themselves.
    Existence of a homomorphism [Q2 → Q1] is exactly containment
    [Q1 ⊆ Q2] (Chandra–Merlin). *)

val embed_atoms :
  ?init:Subst.t -> Atom.t list -> Atom.t list -> Subst.t option
(** [embed_atoms src dst] finds a substitution mapping every atom of
    [src] to some atom of [dst], extending [init].  Backtracking search
    with a predicate index on [dst]. *)

val embed_atoms_all : Atom.t list -> Atom.t list -> Subst.t list
(** All such substitutions from the empty one (restricted to variables
    of [src]); exponential in the worst case. *)

val find : src:Query.t -> dst:Query.t -> Subst.t option
(** Full homomorphism including the head condition. *)

val exists : src:Query.t -> dst:Query.t -> bool
