(** Syntactic unification over variables and constants.

    There are no function symbols, so unification reduces to managing
    equivalence classes of terms; a most general unifier exists iff no
    class contains two distinct constants. *)

(** Union-find over term equivalence classes, for callers that need to
    inspect classes before choosing representatives (the rewriting
    algorithms do). *)
module Classes : sig
  type t

  val empty : t
  val union : t -> Term.t -> Term.t -> t option
  (** [None] when the union would merge two distinct constants. *)

  val union_atoms : t -> Atom.t -> Atom.t -> t option
  val find : t -> Term.t -> Term.t
  (** Canonical representative (constant-first). *)

  val members : t -> Term.t -> Term.t list
  (** All terms in the class of the argument (including itself). *)

  val classes : t -> Term.t list list
  val to_subst : t -> (Term.t -> bool) -> Subst.t
  (** [to_subst c prefer] builds a substitution sending every variable to
      its class representative, where representatives are chosen:
      constants first, then terms satisfying [prefer], then anything. *)
end
