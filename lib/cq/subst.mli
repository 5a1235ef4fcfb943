(** Substitutions: finite maps from variable names to terms.

    Used by homomorphism search, view expansion and rewriting.  A
    substitution never maps a variable to itself implicitly; unmapped
    variables are left untouched by application. *)

type t

val empty : t
val singleton : string -> Term.t -> t
val of_list : (string * Term.t) list -> t
val to_list : t -> (string * Term.t) list
val find : t -> string -> Term.t option
val bind : t -> string -> Term.t -> t

val extend : t -> string -> Term.t -> t option
(** [extend s v t] is [Some] of [s] with [v ↦ t] added when [v] is unbound
    or already bound to [t]; [None] on conflict.  The workhorse of
    backtracking matching. *)

val apply_term : t -> Term.t -> Term.t
val apply_atom : t -> Atom.t -> Atom.t
val apply_atoms : t -> Atom.t list -> Atom.t list

val compose : t -> t -> t
(** [compose s1 s2] applies [s2] to the range of [s1] and adds the
    bindings of [s2] for variables unbound in [s1]:
    [apply (compose s1 s2) t = apply s2 (apply s1 t)]. *)
