module Smap = Map.Make (String)

type t = Relation.t Smap.t

let empty = Smap.empty

let create_relation db schema =
  let n = Schema.name schema in
  if Smap.mem n db then
    invalid_arg (Printf.sprintf "Database.create_relation: %s exists" n)
  else Smap.add n (Relation.empty schema) db

let add_relation db rel = Smap.add (Relation.name rel) rel db
let relation db n = Smap.find_opt n db

let relation_exn db n =
  match Smap.find_opt n db with Some r -> r | None -> raise Not_found

let schema db n = Option.map Relation.schema (relation db n)
let relation_names db = List.map fst (Smap.bindings db)
let relations db = List.map snd (Smap.bindings db)
let mem_relation db n = Smap.mem n db

let insert db n tuple =
  let r = relation_exn db n in
  Smap.add n (Relation.insert r tuple) db

let insert_list db n tuples =
  let r = relation_exn db n in
  Smap.add n (Relation.insert_list r tuples) db

let delete db n tuple =
  let r = relation_exn db n in
  Smap.add n (Relation.delete r tuple) db

let total_tuples db =
  Smap.fold (fun _ r acc -> acc + Relation.cardinality r) db 0

let equal = Smap.equal Relation.equal
