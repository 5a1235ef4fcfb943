module R = Dc_relational
module Cq = Dc_cq
module C = Dc_citation

let element_relation =
  R.Schema.make "Element" ~key:[ "EID" ]
    [
      R.Schema.attr ~ty:R.Value.TInt "EID";
      R.Schema.attr ~ty:R.Value.TInt "Parent";
      R.Schema.attr ~ty:R.Value.TStr "Tag";
      R.Schema.attr ~ty:R.Value.TInt "Ord";
    ]

let attr_relation =
  R.Schema.make "Attr"
    [
      R.Schema.attr ~ty:R.Value.TInt "EID";
      R.Schema.attr ~ty:R.Value.TStr "Name";
      R.Schema.attr ~ty:R.Value.TStr "Value";
    ]

let content_relation =
  R.Schema.make "Content"
    [ R.Schema.attr ~ty:R.Value.TInt "EID"; R.Schema.attr ~ty:R.Value.TStr "Text" ]

let encode root =
  let db =
    List.fold_left R.Database.create_relation R.Database.empty
      [ element_relation; attr_relation; content_relation ]
  in
  let counter = ref 0 in
  let rec go db parent ord node =
    match node with
    | Node.Text s ->
        R.Database.insert db "Content"
          (R.Tuple.make [ R.Value.Int parent; R.Value.Str s ])
    | Node.Element { tag; attrs; children } ->
        incr counter;
        let eid = !counter in
        let db =
          R.Database.insert db "Element"
            (R.Tuple.make
               [ R.Value.Int eid; R.Value.Int parent; R.Value.Str tag; R.Value.Int ord ])
        in
        let db =
          List.fold_left
            (fun db (n, v) ->
              R.Database.insert db "Attr"
                (R.Tuple.make [ R.Value.Int eid; R.Value.Str n; R.Value.Str v ]))
            db attrs
        in
        let _, db =
          List.fold_left
            (fun (i, db) child -> (i + 1, go db eid i child))
            (0, db) children
        in
        db
  in
  go db 0 0 root

let element_id db ~tag =
  R.Relation.fold
    (fun t acc ->
      match (R.Tuple.get t 0, R.Tuple.get t 2) with
      | R.Value.Int eid, R.Value.Str tg when String.equal tg tag -> eid :: acc
      | _ -> acc)
    (R.Database.relation_exn db "Element")
    []
  |> List.sort compare

let sanitize s =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
      then c
      else '_')
    s

let view_name_of_tag tag = "V_" ^ sanitize tag

let tag_citation_view ~tag ~blurb =
  let vname = view_name_of_tag tag in
  let element_atom eid_term =
    Cq.Atom.make "Element"
      [ eid_term; Cq.Term.Var "P"; Cq.Term.str tag; Cq.Term.Var "O" ]
  in
  let attr_atom eid_term =
    Cq.Atom.make "Attr" [ eid_term; Cq.Term.Var "Name"; Cq.Term.Var "Value" ]
  in
  let view =
    Cq.Query.make_exn ~params:[ "EID" ] ~name:vname
      ~head:[ Cq.Term.Var "EID"; Cq.Term.Var "Name"; Cq.Term.Var "Value" ]
      ~body:[ element_atom (Cq.Term.Var "EID"); attr_atom (Cq.Term.Var "EID") ]
      ()
  in
  let citation_attrs =
    Cq.Query.make_exn ~params:[ "EID" ]
      ~name:("C" ^ vname)
      ~head:[ Cq.Term.Var "EID"; Cq.Term.Var "Name"; Cq.Term.Var "Value" ]
      ~body:[ attr_atom (Cq.Term.Var "EID") ]
      ()
  in
  let citation_blurb =
    Cq.Query.make_exn
      ~name:("C" ^ vname ^ "_src")
      ~head:[ Cq.Term.str blurb ]
      ~body:[ Cq.Atom.make "True" [] ]
      ()
  in
  C.Citation_view.make_exn ~view ~citations:[ citation_attrs; citation_blurb ] ()

let tag_of db eid =
  R.Relation.fold
    (fun t acc ->
      match (R.Tuple.get t 0, R.Tuple.get t 2) with
      | R.Value.Int e, R.Value.Str tg when e = eid -> Some tg
      | _ -> acc)
    (R.Database.relation_exn db "Element")
    None

let cite_element db ~views ~eid =
  match tag_of db eid with
  | None -> Error (Printf.sprintf "no element %d" eid)
  | Some tag ->
      let engine = C.Engine.create ~selection:`All db views in
      let id = Cq.Term.Const (Dc_relational.Value.Int eid) in
      let query =
        Cq.Query.make_exn
          ~name:(Printf.sprintf "QElem%d" eid)
          ~head:[ Cq.Term.Var "Name"; Cq.Term.Var "Value" ]
          ~body:
            [
              Cq.Atom.make "Element"
                [ id; Cq.Term.Var "P"; Cq.Term.str tag; Cq.Term.Var "O" ];
              Cq.Atom.make "Attr"
                [ id; Cq.Term.Var "Name"; Cq.Term.Var "Value" ];
            ]
          ()
      in
      Ok (C.Engine.cite engine query, tag)
