module C = Dc_citation

let binding_expr cviews rewriting binding : Raw_expr.t =
  Joint
    (List.filter_map
       (fun atom ->
         Option.map Raw_expr.of_expr (C.Compute.leaf_of_atom cviews atom binding))
       (Dc_cq.Query.body rewriting))

let tuple_expr_for_rewriting cviews rewriting bindings : Raw_expr.t =
  Alt (List.map (binding_expr cviews rewriting) bindings)

let tuple_expr cviews per_rewriting : Raw_expr.t =
  AltR
    (List.map
       (fun (rw, bindings) -> tuple_expr_for_rewriting cviews rw bindings)
       per_rewriting)

let result_expr xs : Raw_expr.t = Agg xs
