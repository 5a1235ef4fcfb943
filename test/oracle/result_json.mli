(** A cite result as one line of JSON, so that two results compare as
    strings. *)

val of_result : Dc_citation.Engine.result -> string
(** One-line JSON object over the labeled fields: query text, rewriting
    and selected names, tuple count, the result expression, the concrete
    citations ({!Dc_citation.Fmt_citation} JSON), completeness and the
    rewriting search's stats. *)
