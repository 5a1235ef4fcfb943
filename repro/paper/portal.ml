open Dc_citation
module R = Dc_relational
module Cq = Dc_cq

let page_ids engine ~view =
  match Citation_view.Set.find (Engine.citation_views engine) view with
  | None -> []
  | Some cv -> (
      match Citation_view.params cv with
      | [] -> [ [] ]
      | params ->
          let def = Citation_view.definition cv in
          let positions = Cq.Query.param_positions def in
          let extent = Cq.Eval.result (Engine.database engine) def in
          R.Relation.fold
            (fun tuple acc ->
              let valuation =
                List.map2
                  (fun p pos -> (p, R.Tuple.get tuple pos))
                  params positions
              in
              if List.mem valuation acc then acc else valuation :: acc)
            extent []
          |> List.rev)

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_html (page : Page.t) =
  let b = Buffer.create 1024 in
  (* the caption is escaped once, wholesale, below *)
  let caption =
    page.view
    ^ String.concat ""
        (List.map
           (fun (p, v) -> Printf.sprintf " [%s=%s]" p (R.Value.to_string v))
           page.params)
    ^
    match page.version with
    | Some v -> Printf.sprintf " @version %d" v
    | None -> ""
  in
  Buffer.add_string b
    (Printf.sprintf "<section class=\"datacite-page\">\n<h2>%s</h2>\n"
       (html_escape caption));
  Buffer.add_string b "<table>\n<tr>";
  List.iter
    (fun c -> Buffer.add_string b (Printf.sprintf "<th>%s</th>" (html_escape c)))
    page.columns;
  Buffer.add_string b "</tr>\n";
  List.iter
    (fun row ->
      Buffer.add_string b "<tr>";
      List.iter
        (fun v ->
          Buffer.add_string b
            (Printf.sprintf "<td>%s</td>" (html_escape (R.Value.to_string v))))
        (R.Tuple.to_list row);
      Buffer.add_string b "</tr>\n")
    page.rows;
  Buffer.add_string b "</table>\n<aside class=\"cite-as\">\n<h3>Cite as</h3>\n<p>";
  Buffer.add_string b
    (html_escape (Fmt_citation.render_citation Fmt_citation.Human page.citation));
  Buffer.add_string b "</p>\n<pre>";
  Buffer.add_string b
    (html_escape (Fmt_citation.render_citation Fmt_citation.Bibtex page.citation));
  Buffer.add_string b "</pre>\n</aside>\n</section>";
  Buffer.contents b
