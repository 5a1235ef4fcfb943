(** Time-indexed citation-view registries — the paper's "citation
    evolution" (§3): "the views or the citations associated with views
    may change over time, either in response to a change in query
    workload or evolving standards in data citation".

    A registry records which citation-view set is active from which
    database version on.  Citing at a version uses both the data {e and}
    the view set as of that version, so old citations keep resolving
    with the citation standards of their time.  A stamped, durable
    citation of a version is {!Dc_citation.Versioned_engine.cite_at}'s;
    this registry adds only the view set's history. *)

open Dc_citation

type t

val create : Citation_view.t list -> t
(** The given views are active from version 0. *)

val update : t -> from_version:int -> Citation_view.t list -> t
(** Registers a new view set taking effect at [from_version]
    (inclusive).  Raises [Invalid_argument] when [from_version] is not
    strictly greater than the latest registered epoch. *)

val active_at : t -> int -> Citation_view.t list
(** The view set governing the given version. *)

val epochs : t -> (int * string list) list
(** [(from_version, view names)] per registered epoch, oldest first. *)

val cite_at :
  ?policy:Policy.t ->
  ?selection:Engine.selection ->
  store:Dc_relational.Version_store.t ->
  t ->
  version:int ->
  Dc_cq.Query.t ->
  (Engine.result, string) result
(** Cites against the database {e and} the view set as of [version].
    [Error] when the version is not in the store. *)
