type entry = { key : string; query_text : string; citations : Citation.Set.t }
type t = { mutable entries : entry list }

let create () = { entries = [] }

let add_result bib (result : Engine.result) =
  let citations = result.result_citations in
  let key = Citation.Set.content_key citations in
  if not (List.exists (fun e -> String.equal e.key key) bib.entries) then
    bib.entries <-
      bib.entries
      @ [ { key; query_text = Dc_cq.Query.to_string result.query; citations } ];
  key

let entries bib = bib.entries

let render bib =
  String.concat "\n\n"
    (List.map
       (fun e ->
         Printf.sprintf "[%s] %s\n%s" e.key e.query_text
           (Fmt_citation.render Fmt_citation.Human e.citations))
       bib.entries)
