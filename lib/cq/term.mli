(** Terms of conjunctive queries: variables and constants. *)

type t = Var of string | Const of Dc_relational.Value.t

val str : string -> t

val is_var : t -> bool

val value : t -> Dc_relational.Value.t option

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
