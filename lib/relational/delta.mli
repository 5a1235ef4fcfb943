(** Deltas: sets of insertions and deletions against a database.

    Deltas are what the version store records between versions and what
    the incremental citation maintainer consumes ("citation evolution",
    paper section 3). *)

type change = Insert of Tuple.t | Delete of Tuple.t

type t
(** A delta maps relation names to ordered change lists.  Building one
    with {!insert}/{!delete} costs O(log r) per change, for [r]
    relations touched. *)

val empty : t
val insert : t -> string -> Tuple.t -> t
val delete : t -> string -> Tuple.t -> t
val changes : t -> (string * change list) list
(** Per relation, in name order; each change list in application
    order. *)

val inserted : t -> string -> Tuple.t list
val deleted : t -> string -> Tuple.t list
val size : t -> int

val apply : Database.t -> t -> Database.t
(** Applies each relation's changes in order.  Raises [Not_found]
    when a touched relation is absent from the database. *)

val between : Database.t -> Database.t -> t
(** [between old new_] is the delta turning [old] into [new_]; relations
    present in only one of the two contribute all their tuples. *)

val union : t -> t -> t
(** Concatenates change lists; the second argument's changes apply
    after the first's. *)

val restrict : t -> string list -> t
(** The changes to the named relations only. *)

val net : before:Database.t -> after:Database.t -> t -> t
(** [net ~before ~after d], where applying [d] to [before] gives
    [after], is the net change: one [Insert] per tuple [d] touches that
    is in [after] but not [before], one [Delete] per tuple in [before]
    but not [after], and nothing for a tuple whose changes cancel out.
    O(|d| log n): it reads the two databases only at the touched
    tuples. *)

val pp : Format.formatter -> t -> unit
