(** Typed atomic values stored in relations.

    Values are the leaves of every tuple, citation snippet and query
    constant in the system.  The ordering is total so that values can key
    sets and maps; values of distinct types are ordered by their type
    tag first. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Timestamp of int  (** seconds since epoch; used by versioned citations *)
  | Null

(** Value types, used by schemas to constrain columns. *)
type ty = TInt | TFloat | TStr | TBool | TTimestamp | TAny

val type_of : t -> ty
(** [type_of v] is the type tag of [v]; [Null] has type [TAny]. *)

val conforms : t -> ty -> bool
(** [conforms v ty] holds when [v] may populate a column of type [ty].
    [Null] conforms to every type and every value conforms to [TAny]. *)

val compare : t -> t -> int
(** A total order: by type tag first ([Null] least), then by value.
    Physically equal arguments answer [0] at once, without looking at
    their contents. *)

val equal : t -> t -> bool
val hash : t -> int
(** Non-negative, and equal on values {!equal} equates.  Ints and
    strings are hashed without going through the variant. *)

val pp : Format.formatter -> t -> unit
val pp_ty : Format.formatter -> ty -> unit
val to_string : t -> string
(** The text {!pp} prints, except that strings come out unquoted.
    {!Dc_citation.Fixity} digests render every stored value through
    this, so its output for a given value must never change. *)

val ty_to_string : ty -> string

val of_string : ty -> string -> (t, string) result
(** [of_string ty s] parses [s] as a value of type [ty].  The literal
    ["NULL"], in any case, parses as [Null] for every type.  Used by the
    CSV loader (which reads a quoted field of a string column as that
    string instead) and the delta wire format. *)

val reads_as_null : string -> bool
(** Whether {!of_string} reads the text as [Null]: ["NULL"] in any
    case.  The CSV writer quotes such a string. *)

val ty_of_string : string -> (ty, string) result

(* Convenience constructors. *)
