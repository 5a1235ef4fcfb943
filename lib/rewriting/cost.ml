module Cq = Dc_cq
module R = Dc_relational

let param_distinct_estimate db view p =
  let def = View.definition view in
  let candidates =
    List.concat_map
      (fun atom ->
        if not (R.Database.mem_relation db (Cq.Atom.pred atom)) then []
        else
          List.mapi (fun i t -> (i, t)) (Cq.Atom.args atom)
          |> List.filter_map (fun (i, t) ->
                 match t with
                 | Cq.Term.Var v when String.equal v p ->
                     Some (R.Stats.distinct db (Cq.Atom.pred atom) i)
                 | _ -> None))
      (Cq.Query.body def)
  in
  match candidates with [] -> 1 | c :: cs -> List.fold_left min c cs

let param_distinct_exact db view p =
  let def = View.definition view in
  match Cq.Query.position_of_head_var def p with
  | None -> 1
  | Some pos ->
      let rel = Cq.Eval.result db def in
      R.Relation.distinct_count rel [ pos ]

let atom_citation_count ?(exact = false) db views atom =
  match View.Set.find views (Cq.Atom.pred atom) with
  | None -> 0 (* base atom: nothing to cite *)
  | Some view ->
      if not (View.is_parameterized view) then 1
      else
        let def = View.definition view in
        let positions = Cq.Query.param_positions def in
        let args = Cq.Atom.args atom in
        List.fold_left2
          (fun acc p pos ->
            match List.nth args pos with
            | Cq.Term.Const _ -> acc
            | Cq.Term.Var _ | (exception Failure _) ->
                let d =
                  if exact then param_distinct_exact db view p
                  else param_distinct_estimate db view p
                in
                acc * max 1 d)
          1 (View.params view) positions

let citation_size ?exact db views r =
  List.fold_left
    (fun acc atom -> acc + atom_citation_count ?exact db views atom)
    0 (Cq.Query.body r)

let choose_min_size ?exact db views = function
  | [] -> None
  | r :: rest ->
      let best, _ =
        List.fold_left
          (fun (best, best_cost) r' ->
            let c = citation_size ?exact db views r' in
            if c < best_cost then (r', c) else (best, best_cost))
          (r, citation_size ?exact db views r)
          rest
      in
      Some best
