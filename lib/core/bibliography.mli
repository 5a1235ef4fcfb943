(** Bibliographies over data citations.

    Conventional papers collect their citations in a bibliography; this
    module does the same for data citations: each cited query
    contributes one entry, deduplicated by content
    ({!Citation.Set.content_key}), labelled, and rendered in
    {!Fmt_citation.Human} form.  The in-text reference is the entry's short
    key, answering the paper's "reasonable size for the bibliography
    section" concern: query results carry keys, the bibliography
    carries the extended citations. *)

type t

type entry = {
  key : string;  (** the citations' {!Citation.Set.content_key} *)
  query_text : string;
  citations : Citation.Set.t;
}

val create : unit -> t

val add_result : t -> Engine.result -> string
(** Adds an entry for a cite result's query and result citations, unless
    an entry with the same citations exists; returns the entry's key. *)

val entries : t -> entry list
(** In insertion order. *)

val render : t -> string
(** The bibliography section: one block per entry, prefixed with its
    key and cited query. *)
