module Cq = Dc_cq

let expand_atom views occurrence atom =
  match View.Set.find views (Cq.Atom.pred atom) with
  | None -> Some ([ atom ], Cq.Subst.empty)
  | Some view ->
      let fresh = View.freshen view (1000 + occurrence) in
      let def = View.definition fresh in
      if List.length (Cq.Query.head def) <> Cq.Atom.arity atom then None
      else
        let pairs = List.combine (Cq.Query.head def) (Cq.Atom.args atom) in
        let classes =
          List.fold_left
            (fun acc (a, b) ->
              match acc with
              | None -> None
              | Some c -> Cq.Unify.Classes.union c a b)
            (Some Cq.Unify.Classes.empty)
            pairs
        in
        (* Prefer the rewriting's own variables as representatives so the
           substitution touches the fresh view variables, not the
           rewriting's. *)
        let fresh_vars = Cq.Query.all_vars def in
        let is_rewriting_var = function
          | Cq.Term.Var v -> not (List.mem v fresh_vars)
          | Cq.Term.Const _ -> false
        in
        Option.map
          (fun c ->
            let s = Cq.Unify.Classes.to_subst c is_rewriting_var in
            (Cq.Subst.apply_atoms s (Cq.Query.body def), s))
          classes

let expand views r =
  let rec go i acc subst = function
    | [] -> Some (List.rev acc, subst)
    | atom :: rest -> (
        let atom = Cq.Subst.apply_atom subst atom in
        match expand_atom views i atom with
        | None -> None
        | Some (atoms, s) ->
            let acc = List.rev_append (Cq.Subst.apply_atoms s atoms) acc in
            go (i + 1) acc (Cq.Subst.compose subst s) rest)
  in
  match go 0 [] Cq.Subst.empty (Cq.Query.body r) with
  | None -> None
  | Some (body, subst) -> (
      (* A later atom's head unification may rename a rewriting variable
         that already occurs in an earlier expanded atom; one final pass
         with the composed substitution settles every occurrence. *)
      let body = Cq.Subst.apply_atoms subst body in
      let head = List.map (Cq.Subst.apply_term subst) (Cq.Query.head r) in
      match
        Cq.Query.make
          ~name:(Cq.Query.name r ^ "_exp")
          ~head ~body ()
      with
      | Ok q -> Some (q, subst)
      | Error _ -> None)

let is_equivalent_rewriting ?(deps = []) views q r =
  match expand views r with
  | None -> false
  | Some (expansion, _) ->
      if deps = [] then Cq.Containment.equivalent q expansion
      else Cq.Chase.equivalent deps q expansion
