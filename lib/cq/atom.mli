(** Relational atoms: a predicate name applied to a list of terms. *)

type t = { pred : string; args : Term.t list }

val make : string -> Term.t list -> t
val pred : t -> string
val args : t -> Term.t list
val arity : t -> int
val var_list : t -> string list
(** Variable names in order of first occurrence. *)

val constants : t -> Dc_relational.Value.t list
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
