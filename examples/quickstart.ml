(* Quickstart: define a schema, load data, declare a citation view, and
   get a citation for a query — the 60-second tour of the public API. *)

module R = Dc_relational
module C = Dc_citation

let () =
  (* 1. A schema and some data. *)
  let schema =
    R.Schema.make "Paper" ~key:[ "PID" ]
      [
        R.Schema.attr ~ty:R.Value.TInt "PID";
        R.Schema.attr ~ty:R.Value.TStr "Title";
        R.Schema.attr ~ty:R.Value.TStr "Author";
      ]
  in
  let db =
    R.Database.create_relation R.Database.empty schema
    |> fun db ->
    R.Database.insert_list db "Paper"
      [
        R.Tuple.make [ R.Value.Int 1; R.Value.Str "Provenance Semirings"; R.Value.Str "Green" ];
        R.Tuple.make [ R.Value.Int 2; R.Value.Str "Answering Queries Using Views"; R.Value.Str "Halevy" ];
      ]
  in

  (* 2. A citation view: each paper is cited with its title and author. *)
  let parse = Dc_cq.Parser.parse_query_exn in
  let papers_view =
    C.Citation_view.make_exn
      ~view:(parse "Papers(PID,Title,Author) :- Paper(PID,Title,Author)")
      ~citations:[ parse "CPapers(T) :- T=\"The Paper Archive, v1\"" ]
      ()
  in

  (* 3. Ask for a citation. *)
  let engine = C.Engine.create db [ papers_view ] in
  match C.Engine.cite_string engine "Q(Title) :- Paper(PID,Title,Author)" with
  | Error e -> prerr_endline e
  | Ok result ->
      Format.printf "Result tuples and their formal citations:@.";
      List.iter
        (fun (t : C.Engine.tuple_citation) ->
          Format.printf "  %a : %a@." R.Tuple.pp t.tuple C.Cite_expr.pp t.expr)
        result.tuples;
      Format.printf "@.Citation for the whole answer:@.%s@."
        (C.Fmt_citation.render C.Fmt_citation.Human result.result_citations)
