(** A SQL-flavoured surface syntax compiled to conjunctive queries.

    Grammar (keywords case-insensitive):
    {v
      SELECT a.Col [AS Name] (, b.Col [AS Name])*
      FROM   Rel a (, Rel b)*
      [WHERE a.Col = b.Col (AND cond)* | a.Col = literal]
    v}
    Literals: integers, floats, and single- or double-quoted strings.
    Every FROM entry needs an alias; the same relation may appear under
    several aliases (self-joins).  The compiled query's head variables
    are named after the output columns, so citations and result schemas
    read naturally.

    This covers exactly the select-project-join fragment that
    conjunctive queries express: no aggregates, no OR, no negation —
    queries outside the fragment are rejected with a message. *)

val compile :
  schemas:Dc_relational.Schema.t list -> string -> (Query.t, string) result
(** [compile ~schemas sql] type-checks column references against the
    schemas and produces the equivalent conjunctive query, named
    ["Q"]. *)
