(** Conjunctive queries, optionally parameterized (the paper's λ-views).

    A query [λ p1,…,pk. N(t̄) :- A1,…,Am] has a name [N], head terms
    [t̄], body atoms [Ai] and parameters [pi].  Parameters are variables
    that must occur in the head (paper §2: "the parameters must appear in
    the head of the queries"); they partition the view's tuples into
    citation groups. *)

type t = private {
  name : string;
  params : string list;
  head : Term.t list;
  body : Atom.t list;
}

val make :
  ?params:string list ->
  name:string ->
  head:Term.t list ->
  body:Atom.t list ->
  unit ->
  (t, string) result
(** Checks well-formedness: safety (every head variable occurs in the
    body), parameters are head variables, non-empty body. *)

val make_exn :
  ?params:string list ->
  name:string ->
  head:Term.t list ->
  body:Atom.t list ->
  unit ->
  t
(** Raises [Invalid_argument] on the same conditions. *)

val name : t -> string
val params : t -> string list
val head : t -> Term.t list
val body : t -> Atom.t list
val arity : t -> int
val is_parameterized : t -> bool

val head_vars : t -> string list
(** Head variable names, in order of first occurrence. *)

val all_vars : t -> string list
val existential_vars : t -> string list
(** Body variables that do not occur in the head. *)

val position_of_head_var : t -> string -> int option
(** First head position where the variable occurs. *)

val param_positions : t -> int list
(** Head positions holding each parameter, in parameter order.
    Raises [Invalid_argument] if a parameter repeats in the head at no
    position (cannot happen for well-formed queries). *)

val predicates : t -> string list
(** Distinct predicate names used in the body. *)

val apply_subst : Subst.t -> t -> t
(** Applies a substitution to head and body.  Parameters that get bound
    to constants or renamed are dropped/renamed accordingly. *)

val freshen : t -> int -> t
(** [freshen q i] renames variables with an ["_" ^ i] suffix. *)

val strip_params : t -> t
(** The same query with the parameter list emptied (rewriting ignores
    parameters, paper §2: "In the rewritings, parameters are ignored"). *)

val with_name : string -> t -> t

val equal_syntactic : t -> t -> bool

val compare_syntactic : t -> t -> int
(** A total order on a query's syntax, constants compared as typed
    values ({!Dc_relational.Value.compare}): unlike {!to_string}, which
    prints [Int 1] and [Float 1.0] alike and floats at six digits, an
    injective key. *)

val map_constants : (Dc_relational.Value.t -> Dc_relational.Value.t) -> t -> t
(** Replaces every constant of the head and body by its image; names,
    parameters and variables are kept, so the result is well-formed. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
