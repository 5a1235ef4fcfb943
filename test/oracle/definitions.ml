module C = Dc_citation

let binding_expr cviews rewriting binding =
  C.Cite_expr.joint
    (List.filter_map
       (fun atom -> C.Compute.leaf_of_atom cviews atom binding)
       (Dc_cq.Query.body rewriting))

let tuple_expr_for_rewriting cviews rewriting bindings =
  C.Cite_expr.alt (List.map (binding_expr cviews rewriting) bindings)

let tuple_expr cviews per_rewriting =
  C.Cite_expr.alt_r
    (List.map
       (fun (rw, bindings) -> tuple_expr_for_rewriting cviews rw bindings)
       per_rewriting)

let result_expr = C.Cite_expr.agg
