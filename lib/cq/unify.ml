module Value = Dc_relational.Value

module Classes = struct
  (* A persistent union-find keyed by terms.  Parents map each term to
     another term of its class; absent terms are their own class. *)
  type t = Term.t Term.Map.t

  let empty = Term.Map.empty

  let rec root c t =
    match Term.Map.find_opt t c with None -> t | Some p -> root c p

  let is_const = function Term.Const _ -> true | Term.Var _ -> false

  let union c a b =
    let ra = root c a and rb = root c b in
    if Term.equal ra rb then Some c
    else
      match (ra, rb) with
      | Term.Const x, Term.Const y ->
          if Value.equal x y then Some c else None
      | Term.Const _, _ -> Some (Term.Map.add rb ra c)
      | _, Term.Const _ -> Some (Term.Map.add ra rb c)
      | _, _ -> Some (Term.Map.add rb ra c)

  let union_atoms c a b =
    if
      String.equal (Atom.pred a) (Atom.pred b)
      && Atom.arity a = Atom.arity b
    then
      List.fold_left2
        (fun acc ta tb ->
          match acc with None -> None | Some c -> union c ta tb)
        (Some c) (Atom.args a) (Atom.args b)
    else None

  let all_terms c =
    Term.Map.fold
      (fun t p acc -> Term.Set.add t (Term.Set.add p acc))
      c Term.Set.empty

  let members c t =
    let r = root c t in
    Term.Set.elements
      (Term.Set.filter
         (fun t' -> Term.equal (root c t') r)
         (Term.Set.add t (all_terms c)))

  let classes c =
    let terms = Term.Set.elements (all_terms c) in
    let by_root = Hashtbl.create 16 in
    List.iter
      (fun t ->
        let r = root c t in
        let existing =
          Option.value ~default:[] (Hashtbl.find_opt by_root r)
        in
        Hashtbl.replace by_root r (t :: existing))
      terms;
    Hashtbl.fold (fun _ members acc -> List.rev members :: acc) by_root []

  (* Representative used by [find]: the root, unless some member is a
     constant (union keeps constants at the root, so the root suffices). *)
  let find c t = root c t

  let to_subst c prefer =
    let pick_rep cls =
      match List.find_opt is_const cls with
      | Some t -> t
      | None -> (
          match List.find_opt prefer cls with
          | Some t -> t
          | None -> List.hd cls)
    in
    List.fold_left
      (fun s cls ->
        let rep = pick_rep cls in
        List.fold_left
          (fun s t ->
            match t with
            | Term.Var v when not (Term.equal t rep) -> Subst.bind s v rep
            | _ -> s)
          s cls)
      Subst.empty (classes c)
end
