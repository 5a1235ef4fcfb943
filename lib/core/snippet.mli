(** Citation snippets.

    A snippet is one row of a citation query's output: the "snippets of
    information on the web page view of the resource [that] should be
    included in a citation" (paper §1), as named fields.  A snippet also
    remembers which citation query produced it, so a citation built from
    several citation queries keeps its parts distinguishable. *)

type t

val make :
  source:string -> (string * Dc_relational.Value.t) list -> t
(** [make ~source fields] — [source] is the citation query name. *)

val source : t -> string
val fields : t -> (string * Dc_relational.Value.t) list
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val of_tuple :
  source:string -> string list -> Dc_relational.Tuple.t -> t
(** [of_tuple ~source column_names tuple] zips names with values. *)
