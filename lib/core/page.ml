module R = Dc_relational
module Cq = Dc_cq

type t = {
  view : string;
  params : (string * R.Value.t) list;
  rows : R.Tuple.t list;
  columns : string list;
  citation : Citation.t;
  version : R.Version_store.version option;
}

let instantiate_view def valuation =
  let s =
    Cq.Subst.of_list
      (List.filter_map
         (fun p ->
           Option.map (fun v -> (p, Cq.Term.Const v)) (List.assoc_opt p valuation))
         (Cq.Query.params def))
  in
  Cq.Query.apply_subst s def

let render ?version engine ~view ~params =
  match Citation_view.Set.find (Engine.citation_views engine) view with
  | None -> Error (Printf.sprintf "unknown view %s" view)
  | Some cv -> (
      let missing =
        List.filter
          (fun p -> not (List.mem_assoc p params))
          (Citation_view.params cv)
      in
      match missing with
      | p :: _ -> Error (Printf.sprintf "missing parameter %s" p)
      | [] ->
          let def = Citation_view.definition cv in
          let inst = instantiate_view def params in
          let rows =
            List.map fst (Cq.Eval.run (Engine.database engine) inst)
          in
          let columns =
            List.mapi
              (fun i t ->
                match t with
                | Cq.Term.Var v -> v
                | Cq.Term.Const _ -> Cq.Query.name def ^ string_of_int i)
              (Cq.Query.head def)
          in
          let citation =
            Engine.resolve_leaf engine
              {
                Cite_expr.view;
                params =
                  List.filter
                    (fun (p, _) -> List.mem p (Citation_view.params cv))
                    params;
              }
          in
          Ok { view; params; rows; columns; citation; version })

let to_text page =
  let b = Buffer.create 256 in
  Buffer.add_string b page.view;
  List.iter
    (fun (p, v) ->
      Buffer.add_string b (Printf.sprintf " [%s=%s]" p (R.Value.to_string v)))
    page.params;
  (match page.version with
  | Some v -> Buffer.add_string b (Printf.sprintf " @version %d" v)
  | None -> ());
  Buffer.add_char b '\n';
  Buffer.add_string b (String.concat " | " page.columns);
  Buffer.add_char b '\n';
  List.iter
    (fun row ->
      Buffer.add_string b
        (String.concat " | "
           (List.map R.Value.to_string (R.Tuple.to_list row)));
      Buffer.add_char b '\n')
    page.rows;
  Buffer.add_string b "-- cite as --\n";
  Buffer.add_string b (Fmt_citation.render_citation Fmt_citation.Human page.citation);
  Buffer.contents b
