module Rw = Dc_rewriting
module Cq = Dc_cq

let covered_count views workload =
  List.length
    (List.filter
       (fun q -> (Rw.Rewrite.search views q).Rw.Rewrite.queries <> [])
       workload)

let greedy_minimal_views views workload =
  let target = covered_count views workload in
  let rec shrink kept =
    let try_drop v =
      let remaining = List.filter (fun v' -> not (v' == v)) kept in
      if covered_count (Rw.View.Set.of_list remaining) workload = target then
        Some remaining
      else None
    in
    match List.find_map try_drop kept with
    | Some remaining -> shrink remaining
    | None -> kept
  in
  shrink (Rw.View.Set.to_list views)

let suggest_views views workload =
  let covered vset q = (Rw.Rewrite.search vset q).Rw.Rewrite.queries <> [] in
  let uncovered = List.filter (fun q -> not (covered views q)) workload in
  (* each uncovered query, as a view over the base schema; adding a
     suggestion may cover later uncovered queries, so re-check against
     the grown view set *)
  let _, suggestions =
    List.fold_left
      (fun (vset, acc) q ->
        if covered vset q then (vset, acc)
        else
          let name = Printf.sprintf "Suggested%d" (List.length acc) in
          let view = Cq.Query.with_name name (Cq.Query.strip_params q) in
          match Rw.View.Set.add vset (Rw.View.of_query view) with
          | Ok vset -> (vset, acc @ [ view ])
          | Error _ -> (vset, acc))
      (views, []) uncovered
  in
  suggestions
