(** Tuples: fixed-arity arrays of values.

    Tuples are treated as immutable; no function in this library mutates
    a tuple after construction, and callers must not either. *)

type t = Value.t array

val make : Value.t list -> t
val of_array : Value.t array -> t
val to_list : t -> Value.t list
val arity : t -> int

val get : t -> int -> Value.t
(** Raises [Invalid_argument] when out of range. *)

val project : t -> int list -> t
(** [project t positions] keeps the listed positions, in order. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Folds {!Value.hash} over every column.  [Hashtbl.hash] is {e not}
    usable here: it samples only a bounded prefix of the structure, so
    wide tuples sharing a prefix collide systematically. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by tuple ({!hash}/{!equal}); the relation layer
    counts distinct projections with one. *)
