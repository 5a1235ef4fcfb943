(** Relation schemas.

    A schema names a relation, types its columns, and records which
    columns form the primary key.  Key information is used by the
    synthetic generators and by the rewriting cost model (a lookup on a
    key column has estimated cardinality 1). *)

type attribute = { name : string; ty : Value.ty }

type t

val make : ?key:string list -> string -> attribute list -> t
(** [make name attrs ~key] builds a schema.  Raises [Invalid_argument]
    when attribute names repeat or a key column is not an attribute. *)

val name : t -> string
val attributes : t -> attribute list
val arity : t -> int
val key : t -> string list

val attr : ?ty:Value.ty -> string -> attribute
(** [attr name] is a column of type [TAny] unless [ty] is given. *)

val position : t -> string -> int option
(** [position s a] is the index of column [a] in [s], if present. *)

val key_positions : t -> int list

val conforms : t -> Value.t array -> bool
(** [conforms s row] holds when [row] has the right arity and every
    value conforms to its column type. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
