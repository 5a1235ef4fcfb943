(** A data portal over {!Dc_citation.Page}: the site map of a
    parameterized view and each page as HTML — the paper's §1 scenario
    of web pages that carry generated citations. *)

val page_ids :
  Dc_citation.Engine.t -> view:string -> (string * Dc_relational.Value.t) list list
(** All parameter valuations that currently have a non-empty page —
    the site map.  Empty-parameter views yield the single page [[]]. *)

val to_html : Dc_citation.Page.t -> string
(** A self-contained HTML rendering: caption, data table, and a
    "cite as" block (human-readable plus a BibTeX <pre>). *)
