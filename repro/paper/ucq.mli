(** Unions of conjunctive queries.

    The set of minimal rewritings {Q1,…,Qn} of a query behaves like a
    UCQ whose disjuncts are pairwise equivalent; this module also
    provides the general containment test (Sagiv–Yannakakis: a CQ is
    contained in a UCQ iff it is contained in one of its disjuncts). *)

open Dc_cq

type t = private { name : string; disjuncts : Query.t list }

val make : name:string -> Query.t list -> (t, string) result
(** All disjuncts must share one arity; at least one disjunct. *)

val make_exn : name:string -> Query.t list -> t
val name : t -> string
val disjuncts : t -> Query.t list
val arity : t -> int

val contained_cq : Query.t -> t -> bool
(** [contained_cq q u] iff [q ⊆ u]. *)

val contained : t -> t -> bool
val equivalent : t -> t -> bool

val run :
  Dc_relational.Database.t ->
  t ->
  (Dc_relational.Tuple.t * (Query.t * Eval.Binding.t list) list) list
(** Per output tuple, which disjuncts produce it and with which
    bindings; disjuncts contributing no binding for the tuple are
    omitted. *)

val result : Dc_relational.Database.t -> t -> Dc_relational.Tuple.t list

val pp : Format.formatter -> t -> unit
