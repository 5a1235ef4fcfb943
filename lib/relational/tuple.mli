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

(** Persistent sets of tuples ordered by {!compare}: the extents of
    {!Relation}.  A height-balanced tree like the standard library's,
    with the one constructor that library keeps private, {!of_sorted}. *)
module Set : sig
  type elt = t
  type t

  val empty : t

  val add : elt -> t -> t
  (** An element equal to one already present leaves the set as it is
      (physically), keeping the stored element. *)

  val remove : elt -> t -> t
  val mem : elt -> t -> bool

  val find_opt : elt -> t -> elt option
  (** The stored element equal to the argument. *)

  val cardinal : t -> int

  val elements : t -> elt list
  (** Ascending. *)

  val iter : (elt -> unit) -> t -> unit
  (** Ascending. *)

  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  (** Ascending. *)

  val to_seq_from : elt -> t -> elt Seq.t
  (** The elements not below the argument, ascending. *)

  val equal : t -> t -> bool

  val elements_diff : t -> t -> elt list
  (** [elements_diff a b] is the elements of [a] not in [b], ascending:
      one merge of the two ascending walks, which skips whole a subtree
      both sets share and reach at the same element (two versions of
      one relation share most of theirs). *)

  val of_sorted : elt array -> int -> t
  (** [of_sorted a n] is the set of [a.(0)] to [a.(n-1)], which must be
      strictly ascending; this is {e not} checked.  One pass, one node
      per element, no comparison. *)
end

module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by tuple ({!hash}/{!equal}); the relation layer
    counts distinct projections with one. *)
