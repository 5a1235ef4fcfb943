module R = Dc_relational
module Cq = Dc_cq

let col_vars schema =
  List.map
    (fun (a : R.Schema.attribute) -> Cq.Term.Var a.name)
    (R.Schema.attributes schema)

let whole_relation_view ~blurb schema =
  let rel = R.Schema.name schema in
  let args = col_vars schema in
  let view =
    Cq.Query.make_exn ~name:("All" ^ rel) ~head:args
      ~body:[ Cq.Atom.make rel args ]
      ()
  in
  let citation =
    Cq.Query.make_exn
      ~name:("CAll" ^ rel)
      ~head:[ Cq.Term.str blurb ]
      ~body:[ Cq.Atom.make "True" [] ]
      ()
  in
  Citation_view.make_exn ~view ~citations:[ citation ] ()

let per_entity_view schema =
  let rel = R.Schema.name schema in
  match R.Schema.key schema with
  | [] -> None
  | key ->
      let args = col_vars schema in
      let view =
        Cq.Query.make_exn ~params:key ~name:("One" ^ rel) ~head:args
          ~body:[ Cq.Atom.make rel args ]
          ()
      in
      (* the citation query pulls the entity's own row *)
      let citation =
        Cq.Query.make_exn ~params:key
          ~name:("COne" ^ rel)
          ~head:args
          ~body:[ Cq.Atom.make rel args ]
          ()
      in
      Some (Citation_view.make_exn ~view ~citations:[ citation ] ())

let views_for_relation ~blurb schema =
  whole_relation_view ~blurb schema
  :: Option.to_list (per_entity_view schema)

let views_for_database ~blurb db =
  List.concat_map
    (fun rel -> views_for_relation ~blurb (R.Relation.schema rel))
    (R.Database.relations db)
