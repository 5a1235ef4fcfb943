let cardinality db name =
  match Database.relation db name with
  | None -> 0
  | Some rel -> Relation.cardinality rel

let distinct db name col =
  match Database.relation db name with
  | None -> 0
  | Some rel -> Relation.distinct rel col

let selectivity db name col =
  let d = distinct db name col in
  if d <= 0 then 1.0 else 1.0 /. float_of_int d
