(** Automatically generated citation views — the "appropriate defaults"
    the paper's §3 says a citation interface must offer.

    For every base relation the generator produces:
    - a whole-relation view [All<Rel>] whose citation is a fixed
      database-level blurb (like the paper's V2/V3); and
    - when the relation declares a key, a per-entity view [One<Rel>]
      parameterized by the key columns, whose citation query pulls the
      entity's own row (so each entity page cites its own content).

    With these defaults every single-relation query is covered out of
    the box; the owner then refines or replaces them view by view. *)

val views_for_database :
  blurb:string -> Dc_relational.Database.t -> Citation_view.t list
(** The generated views of every relation of the database. *)
