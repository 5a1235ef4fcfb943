(** Citation views: the database owner's unit of citation specification.

    A citation view packages (paper §2) a view query [V], one or more
    citation queries [CV] whose parameters must be consistent with [V]'s,
    and a citation function [F_V].  Here [F_V] is a post-processing hook
    on the assembled {!Citation.t} (identity by default); rendering into
    concrete formats lives in {!Fmt_citation}. *)

type t

val make :
  ?post:(Citation.t -> Citation.t) ->
  view:Dc_cq.Query.t ->
  citations:Dc_cq.Query.t list ->
  unit ->
  (t, string) result
(** Checks that each citation query's parameters are a subset of the
    view's parameters and that at least one citation query is given. *)

val make_exn :
  ?post:(Citation.t -> Citation.t) ->
  view:Dc_cq.Query.t ->
  citations:Dc_cq.Query.t list ->
  unit ->
  t

val view : t -> Dc_rewriting.View.t
val definition : t -> Dc_cq.Query.t
val citation_queries : t -> Dc_cq.Query.t list
val name : t -> string
val params : t -> string list

val cite :
  ?cache:Dc_cq.Eval.cache ->
  t ->
  Dc_relational.Database.t ->
  (string * Dc_relational.Value.t) list ->
  Citation.t
(** [cite cv db valuation] instantiates every citation query of [cv]
    with the parameter [valuation], evaluates them over the {e base}
    database, and assembles the resulting snippets into a citation,
    applying the view's post hook ([F_V]).
    Raises [Invalid_argument] when [valuation] does not cover the
    view's parameters. *)

(** Named collections of citation views. *)
module Set : sig
  type citation_view = t
  type t

  val of_list : citation_view list -> t
  (** Raises [Invalid_argument] on duplicate names. *)

  val find : t -> string -> citation_view option
  val find_exn : t -> string -> citation_view
  val to_list : t -> citation_view list
  val size : t -> int

  val view_set : t -> Dc_rewriting.View.Set.t
  (** The plain views, for the rewriting algorithms. *)
end
