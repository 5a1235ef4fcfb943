exception Chase_overflow

type outcome = Chased of Query.t | Unsatisfiable

type state = { head : Term.t list; body : Atom.t list; mutable fresh : int }

let fresh_var st =
  st.fresh <- st.fresh + 1;
  Printf.sprintf "χ%d" st.fresh

let substitute st s =
  { st with head = List.map (Subst.apply_term s) st.head;
            body = List.sort_uniq Atom.compare (Subst.apply_atoms s st.body) }

(* One EGD application anywhere in the state.  Returns [None] when no
   hom triggers a change, [Some (Ok st)] after a merge, [Some (Error ())]
   on constant clash. *)
let egd_step st (e : Dependency.egd) =
  let homs = Homomorphism.embed_atoms_all e.body st.body in
  let apply h =
    let tx = Subst.apply_term h (Term.Var (fst e.equal)) in
    let ty = Subst.apply_term h (Term.Var (snd e.equal)) in
    if Term.equal tx ty then None
    else
      match (tx, ty) with
      | Term.Const _, Term.Const _ -> Some (Error ())
      | Term.Var v, t | t, Term.Var v ->
          Some (Ok (substitute st (Subst.singleton v t)))
  in
  List.find_map apply homs

(* One TGD application: a body hom whose head cannot be embedded.  The
   head is added with fresh existential variables. *)
let tgd_step st (t : Dependency.tgd) =
  let homs = Homomorphism.embed_atoms_all t.body st.body in
  let apply h =
    match Homomorphism.embed_atoms ~init:h t.head st.body with
    | Some _ -> None (* already satisfied at this trigger *)
    | None ->
        let body_vars = List.concat_map Atom.var_list t.body in
        let head_vars = List.concat_map Atom.var_list t.head in
        let existentials =
          List.sort_uniq String.compare
            (List.filter (fun v -> not (List.mem v body_vars)) head_vars)
        in
        let s =
          List.fold_left
            (fun s v -> Subst.bind s v (Term.Var (fresh_var st)))
            h existentials
        in
        let new_atoms = Subst.apply_atoms s t.head in
        Some
          { st with
            body = List.sort_uniq Atom.compare (st.body @ new_atoms) }
  in
  List.find_map apply homs

let chase ?(max_steps = 200) deps q =
  let st =
    ref { head = Query.head q; body = Query.body q; fresh = 0 }
  in
  let steps = ref 0 in
  let exception Unsat in
  let rec loop () =
    if !steps > max_steps then raise Chase_overflow;
    let changed =
      List.exists
        (fun dep ->
          match dep with
          | Dependency.Egd e -> (
              match egd_step !st e with
              | None -> false
              | Some (Error ()) -> raise Unsat
              | Some (Ok st') ->
                  st := st';
                  true)
          | Dependency.Tgd t -> (
              match tgd_step !st t with
              | None -> false
              | Some st' ->
                  st := st';
                  true))
        deps
    in
    if changed then begin
      incr steps;
      loop ()
    end
  in
  match loop () with
  | () ->
      (* The chased body can make originally-safe head variables appear
         nowhere (merged into constants); rebuild defensively. *)
      Chased
        (Query.make_exn ~name:(Query.name q ^ "_chase") ~head:(!st).head
           ~body:(!st).body ())
  | exception Unsat -> Unsatisfiable

let contained ?max_steps deps q1 q2 =
  match chase ?max_steps deps q1 with
  | Unsatisfiable -> true
  | Chased q1' -> Homomorphism.exists ~src:q2 ~dst:q1'

let equivalent deps q1 q2 = contained deps q1 q2 && contained deps q2 q1
