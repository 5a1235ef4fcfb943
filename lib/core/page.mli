(** Web-page views with generated citations — the paper's §1 scenario.

    GtoPdb "automatically generates citations, but only for some
    queries": each web page is one parameterized view instantiated at
    one parameter valuation, and the citation is generated together
    with the page.  This module reproduces exactly that behaviour on
    top of an {!Engine}: render the page's data and its citation in one
    call, optionally stamped with a version for fixity. *)

type t = {
  view : string;
  params : (string * Dc_relational.Value.t) list;
  rows : Dc_relational.Tuple.t list;  (** the page's data *)
  columns : string list;  (** header, from the view's head *)
  citation : Citation.t;
  version : Dc_relational.Version_store.version option;
}

val render :
  ?version:Dc_relational.Version_store.version ->
  Engine.t ->
  view:string ->
  params:(string * Dc_relational.Value.t) list ->
  (t, string) result
(** Instantiates the view at the valuation, evaluates it over the
    engine's base database and attaches the view's citation.  Errors:
    unknown view, missing parameter. *)

val to_text : t -> string
(** A plain-text rendering of the page: header, rows, citation. *)
