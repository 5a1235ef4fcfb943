open Dc_citation
module Cq = Dc_cq
module Rw = Dc_rewriting

let of_result (r : Engine.result) =
  let jstr s = Printf.sprintf "\"%s\"" (Fmt_citation.json_escape s) in
  let names qs = String.concat "," (List.map (fun q -> jstr (Cq.Query.name q)) qs) in
  Printf.sprintf
    "{\"query\":%s,\"rewritings\":[%s],\"selected\":[%s],\"tuples\":%d,\"expr\":%s,\"citations\":%s,\"complete\":%b,\"stats\":%s}"
    (jstr (Cq.Query.to_string r.query))
    (names r.rewritings) (names r.selected)
    (List.length r.tuples)
    (jstr (Cite_expr.to_string r.result_expr))
    (Fmt_citation.render Fmt_citation.Json r.result_citations)
    r.complete
    (let s = r.stats in
     Printf.sprintf "{\"candidates\":%d,\"verified\":%d,\"kept\":%d,\"truncated\":%b}"
       s.candidates s.verified s.kept s.truncated)
