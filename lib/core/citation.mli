(** Concrete citations: the evaluated form of one [F_V(CV(p̄))] leaf, or
    a join of several.

    A citation names the view it came from, fixes the parameter
    valuation, and carries the snippets pulled by the view's citation
    queries at that valuation.  Citation {e sets} (deduplicated, sorted
    lists) are the value domain the {!Policy} interpretations work in. *)

type t

val make :
  view:string ->
  params:(string * Dc_relational.Value.t) list ->
  snippets:Snippet.t list ->
  t

val view : t -> string
val params : t -> (string * Dc_relational.Value.t) list
val snippets : t -> Snippet.t list

val key : t -> string
(** Stable identity: view name plus parameter valuation (snippets are a
    function of these). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Deduplicated citation sets. *)
module Set : sig
  type citation = t
  type t = citation list
  (** Always sorted and duplicate-free. *)

  val of_list : citation list -> t
  val union : t -> t -> t
  (** One linear merge; an element equal in both is taken from the
      first operand. *)

  val union_all : t list -> t
  (** The union of all the sets, equal to folding {!union} from the
      left, in O(n log k) for [k] sets of [n] elements in all (the left
      fold copies its growing accumulator at every step: quadratic in
      [k]). *)

  val join : t -> t -> t
  (** Each pair joined into one composite citation (view names
      concatenated with [·], parameter lists appended, snippets
      unioned); the [Join] reading of [·]. *)

  val size : t -> int

  val content_key : t -> string
  (** ["cite:"] and 12 hex digits of a hash of the set's content (each
      citation's {!key} and snippets): equal sets share a key, and keys
      are stable across runs. *)

  val pp : Format.formatter -> t -> unit
end
