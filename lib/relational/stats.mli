(** Per-column statistics over a database snapshot.

    Statistics feed the rewriting cost model (parameter-distinct
    estimates), the plan compiler's join order and the textbook
    join-cardinality estimate.  They are owned by the relation values
    ({!Relation.cardinality}, {!Relation.distinct}) and this module
    keeps no state.  A value counts a column on first demand, once
    however many engines or domains ask, and a relation value that
    [insert]/[delete] derive from it carries the count across the
    changed tuples: a commit pays O(log d) per changed tuple and counted
    column, and a new version's first plan reads its counts without a
    scan.  An older snapshot keeps its own counts. *)

val cardinality : Database.t -> string -> int
(** 0 for unknown relations. *)

val distinct : Database.t -> string -> int -> int
(** [distinct db rel col] — number of distinct values in the column; 0
    for unknown relations, raises [Invalid_argument] for out-of-range
    columns of known ones. *)

val selectivity : Database.t -> string -> int -> float
(** [1 / distinct] (1.0 for empty or unknown relations): the textbook
    probability that the column equals a given value. *)
