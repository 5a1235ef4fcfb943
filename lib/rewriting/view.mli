(** View definitions for query answering using views.

    A view is a named, possibly parameterized conjunctive query over the
    base schema.  View sets index their members by name and by the base
    predicates they mention. *)

type t

val of_query : Dc_cq.Query.t -> t
val definition : t -> Dc_cq.Query.t
val name : t -> string
val params : t -> string list
val is_parameterized : t -> bool

val freshen : t -> int -> t
(** Rename variables apart with suffix [i]; used once per candidate
    occurrence of the view in a rewriting. *)

(** A collection of views with name and predicate indexes. *)
module Set : sig
  type view = t
  type t

  val add : t -> view -> (t, string) result
  (** Rejects duplicate view names. *)

  val add_exn : t -> view -> t
  val of_list : view list -> t
  (** Raises [Invalid_argument] on duplicate names. *)

  val find : t -> string -> view option
  val to_list : t -> view list
  val size : t -> int

  val with_predicate : t -> string -> view list
  (** Views whose body mentions the given base predicate. *)
end
