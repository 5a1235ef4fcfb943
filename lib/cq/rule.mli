(** Datalog rules: a head atom derived from a body of positive and
    negated literals.

    Rules generalize conjunctive queries with (stratified) negation and
    recursion: the head predicate may occur — directly or through other
    rules — in its own body.  Safety is checked at construction:

    - every head variable occurs in a positive body literal;
    - every variable of a negated literal occurs in a positive literal
      (so negated atoms are ground by the time they are tested);
    - the body is non-empty (the vacuous [True] atom is permitted, so
      constant facts are expressible as [P(c) :- True]).

    Stratification — the global condition that no predicate depends
    negatively on itself through recursion — is a property of a rule
    {e set}, checked by {!Stratify}. *)

type literal = Pos of Atom.t | Neg of Atom.t

type t = private { head : Atom.t; body : literal list }

val make : head:Atom.t -> body:literal list -> (t, string) result
val make_exn : head:Atom.t -> body:literal list -> t
(** Raises [Invalid_argument] on safety violations. *)

val head : t -> Atom.t
val body : t -> literal list

val positive : t -> Atom.t list
(** Positive body atoms, in order. *)

val negative : t -> Atom.t list
(** Negated body atoms, in order. *)

val head_pred : t -> string

val body_preds : t -> (string * bool) list
(** Distinct body predicate names with a flag marking whether the
    predicate occurs under negation (a predicate occurring both ways is
    reported once, flagged negated). *)

val rename : (string -> string) -> t -> t
(** Renames every variable; the caller must supply an injective map. *)

val pp : Format.formatter -> t -> unit
