(** Rendering citations into the formats the paper lists: "human
    readable, BibTex, RIS or XML" (§2) — plus JSON.

    The unit of rendering is a {!Citation.Set.t} (what a policy
    evaluation returns).  Formal {!Cite_expr.t} values print themselves
    ({!Cite_expr.pp}); this module renders the concrete side. *)

type format = Human | Bibtex | Ris | Xml | Json

val format_of_string : string -> (format, string) result

val json_escape : string -> string
(** The body of a JSON string literal: the double quote, backslash,
    newline, carriage return and tab escaped by name, other bytes below
    0x20 as [\u00XX], every other byte as is.  Every JSON this
    repository writes escapes through it. *)

val render_citation : format -> Citation.t -> string
val render : format -> Citation.Set.t -> string

val render_result :
  format -> query:string -> Citation.Set.t -> string
(** Like {!render} but wraps the set with the query text it cites (the
    fixity discussion wants the query recoverable from the citation). *)
