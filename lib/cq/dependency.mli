(** Database dependencies: tuple- and equality-generating.

    The paper's approach leans on query answering using views; its
    reference [10] (Popa & Tannen's equational chase) extends
    containment — and hence rewriting correctness — with schema
    constraints.  This module provides the constraint language; {!Chase}
    implements the procedure.

    A TGD [∀x̄ (φ(x̄) → ∃ȳ ψ(x̄,ȳ))] is given by body and head atom
    lists; head variables absent from the body are existential.  An EGD
    [∀x̄ (φ(x̄) → x = y)] equates two body variables.  Keys and
    functional dependencies compile to EGDs, inclusion dependencies to
    TGDs. *)

type tgd = { name : string; body : Atom.t list; head : Atom.t list }
type egd = { name : string; body : Atom.t list; equal : string * string }

type t = Tgd of tgd | Egd of egd

val tgd : name:string -> body:Atom.t list -> head:Atom.t list -> (t, string) result
(** Checks safety: every non-existential head variable and both sides
    of nothing — i.e. body is non-empty and head is non-empty. *)

val functional_dependency :
  rel:string -> arity:int -> determinant:int list -> dependent:int list -> t list
(** FD [rel : determinant → dependent] as one EGD per dependent column.
    Raises [Invalid_argument] on out-of-range columns. *)

val key_of_schema : Dc_relational.Schema.t -> t list
(** The schema's primary key as functional dependencies to every
    non-key column; empty when the schema declares no key. *)

val inclusion :
  name:string ->
  src:string * int list ->
  dst:string * int list ->
  src_arity:int ->
  dst_arity:int ->
  t
(** Inclusion dependency [src[cols] ⊆ dst[cols]] as a TGD; unmatched
    destination columns are existential. *)
