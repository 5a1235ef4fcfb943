module Cq = Dc_cq
module R = Dc_relational

let leaf_of_atom cviews atom binding =
  match Citation_view.Set.find cviews (Cq.Atom.pred atom) with
  | None -> None
  | Some cv ->
      let def = Citation_view.definition cv in
      let positions = Cq.Query.param_positions def in
      let args = Cq.Atom.args atom in
      let params =
        List.map2
          (fun p pos ->
            match List.nth args pos with
            | Cq.Term.Const c -> (p, c)
            | Cq.Term.Var v -> (p, Cq.Eval.Binding.find_exn binding v))
          (Citation_view.params cv) positions
      in
      Some (Cite_expr.leaf ~view:(Citation_view.name cv) ~params)

let binding_expr cviews rewriting binding =
  Cite_expr.joint
    (List.filter_map
       (fun atom -> leaf_of_atom cviews atom binding)
       (Cq.Query.body rewriting))

let tuple_expr_for_rewriting cviews rewriting bindings =
  Cite_expr.alt (List.map (binding_expr cviews rewriting) bindings)

let tuple_expr cviews per_rewriting =
  Cite_expr.alt_r
    (List.map
       (fun (rw, bindings) -> tuple_expr_for_rewriting cviews rw bindings)
       per_rewriting)

let result_expr exprs = Cite_expr.agg exprs

(* A parameter of a cited atom reads a constant of the rewriting or one
   of the template's variables, by index into a projection. *)
type source = Fixed of R.Value.t | Var of int

type template = {
  rewriting : Cq.Query.t;
  vars : string list;
  cited : (string * (string * source) list) list;
  constant : Cite_expr.t option;
}

let rewriting t = t.rewriting
let vars t = t.vars

let projection_expr t proj =
  Cite_expr.normalize_node
    (Cite_expr.joint
       (List.map
          (fun (view, params) ->
            Cite_expr.leaf ~view
              ~params:
                (List.map
                   (fun (p, src) ->
                     (p, match src with Fixed c -> c | Var i -> proj.(i)))
                   params))
          t.cited))

let template cviews rewriting =
  let vars = ref [] in
  let var_index v =
    let rec find i = function
      | [] ->
          vars := !vars @ [ v ];
          i
      | v' :: _ when String.equal v v' -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 !vars
  in
  let cited =
    List.filter_map
      (fun atom ->
        Option.map
          (fun cv ->
            let args = Cq.Atom.args atom in
            ( Citation_view.name cv,
              List.map2
                (fun p pos ->
                  match List.nth args pos with
                  | Cq.Term.Const c -> (p, Fixed c)
                  | Cq.Term.Var v -> (p, Var (var_index v)))
                (Citation_view.params cv)
                (Cq.Query.param_positions (Citation_view.definition cv)) ))
          (Citation_view.Set.find cviews (Cq.Atom.pred atom)))
      (Cq.Query.body rewriting)
  in
  let t = { rewriting; vars = !vars; cited; constant = None } in
  if t.vars = [] then { t with constant = Some (projection_expr t [||]) }
  else t

let rewriting_expr t projections =
  match t.constant with
  | Some e -> e
  | None ->
      Cite_expr.normalize_node
        (Cite_expr.alt (List.map (projection_expr t) projections))

let projected_expr = function
  | [ (t, projections) ] -> rewriting_expr t projections
  | contribs ->
      Cite_expr.normalize_node
        (Cite_expr.alt_r
           (List.map (fun (t, projections) -> rewriting_expr t projections)
              contribs))
