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

let join_cardinality db (r, rc) (s, sc) =
  let cr = float_of_int (cardinality db r) in
  let cs = float_of_int (cardinality db s) in
  let dr = distinct db r rc and ds = distinct db s sc in
  let dmax = float_of_int (max 1 (max dr ds)) in
  cr *. cs /. dmax
