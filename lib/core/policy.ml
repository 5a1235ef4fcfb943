type combiner = Union | Join

type rewriting_choice = Keep_all | First | Min_size

type t = {
  joint : combiner;
  alt : combiner;
  agg : combiner;
  alt_r : rewriting_choice;
}

let default = { joint = Union; alt = Union; agg = Union; alt_r = Min_size }

let make ?(joint = Union) ?(alt = Union) ?(agg = Union) ?(alt_r = Min_size)
    () =
  { joint; alt; agg; alt_r }

let fold_sets combiner sets =
  match (combiner, sets) with
  | Union, sets -> Citation.Set.union_all sets
  | Join, [] -> []
  | Join, s :: rest -> List.fold_left Citation.Set.join s rest

let eval ~resolve policy expr =
  let rec go = function
    | Cite_expr.Leaf l -> [ resolve l ]
    | Cite_expr.Joint xs -> fold_sets policy.joint (List.map go xs)
    | Cite_expr.Alt xs -> fold_sets policy.alt (List.map go xs)
    | Cite_expr.Agg xs -> fold_sets policy.agg (List.map go xs)
    | Cite_expr.AltR xs -> (
        let sets = List.map go xs in
        match policy.alt_r with
        | Keep_all -> fold_sets Union sets
        | First -> ( match sets with [] -> [] | s :: _ -> s)
        | Min_size -> (
            match sets with
            | [] -> []
            | s :: rest ->
                fst
                  (List.fold_left
                     (fun (best, n) s' ->
                       let n' = Citation.Set.size s' in
                       if n' < n then (s', n') else (best, n))
                     (s, Citation.Set.size s)
                     rest)))
  in
  go expr

let combiner_name = function Union -> "union" | Join -> "join"

let choice_name = function
  | Keep_all -> "keep-all"
  | First -> "first"
  | Min_size -> "min-size"

let pp ppf p =
  Format.fprintf ppf "·=%s, +=%s, Agg=%s, +R=%s" (combiner_name p.joint)
    (combiner_name p.alt) (combiner_name p.agg) (choice_name p.alt_r)

let to_string p = Format.asprintf "%a" pp p
