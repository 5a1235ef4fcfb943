(** A database: a catalog of named relations.

    Databases are persistent values; updates return a new database that
    shares structure with the old one, which the {!Version_store} relies
    on for cheap snapshots. *)

type t

val empty : t
val create_relation : t -> Schema.t -> t
(** Raises [Invalid_argument] when a relation of that name exists. *)

val add_relation : t -> Relation.t -> t
(** Adds or replaces the relation wholesale. *)

val relation : t -> string -> Relation.t option
val relation_exn : t -> string -> Relation.t
(** Raises [Not_found]. *)

val schema : t -> string -> Schema.t option
val relation_names : t -> string list
val relations : t -> Relation.t list
val mem_relation : t -> string -> bool

val insert : t -> string -> Tuple.t -> t
(** Raises [Not_found] when the relation does not exist and
    [Invalid_argument] when the tuple does not conform. *)

val insert_list : t -> string -> Tuple.t list -> t
val delete : t -> string -> Tuple.t -> t
val total_tuples : t -> int
val equal : t -> t -> bool
