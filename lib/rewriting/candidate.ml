module Cq = Dc_cq

type t = { view : View.t; atom : Cq.Atom.t; covered : int list }

let base_entry q i =
  match List.nth_opt (Cq.Query.body q) i with
  | None -> None
  | Some atom ->
      (* A pseudo-view whose definition is the base atom itself; the
         expansion of such an atom is the atom, so partial rewritings
         fall out of the same machinery. *)
      let def =
        Cq.Query.make_exn ~name:(Cq.Atom.pred atom)
          ~head:(Cq.Atom.args atom) ~body:[ atom ] ()
      in
      Some { view = View.of_query def; atom; covered = [ i ] }

let subgoal q i = List.nth (Cq.Query.body q) i

let of_classes ?(check_exposure = true) ~query ~view ~fresh ~classes ~covered
    () =
  let module C = Cq.Unify.Classes in
  let fresh_def = View.definition fresh in
  let fresh_vars = Cq.Query.all_vars fresh_def in
  let fresh_head_vars = Cq.Query.head_vars fresh_def in
  let is_query_term = function
    | Cq.Term.Var v -> not (List.mem v fresh_vars)
    | Cq.Term.Const _ -> false
  in
  let subst = C.to_subst classes is_query_term in
  let atom =
    Cq.Atom.make (View.name view)
      (List.map (Cq.Subst.apply_term subst) (Cq.Query.head fresh_def))
  in
  let exposed qvar =
    let cls = C.members classes (Cq.Term.Var qvar) in
    List.exists
      (function
        | Cq.Term.Const _ -> true
        | Cq.Term.Var v -> List.mem v fresh_head_vars)
      cls
  in
  if not check_exposure then Some { view; atom; covered }
  else
    (* Every query variable that must be visible outside the covered
       subgoals — because it is distinguished or joins with an uncovered
       subgoal — has to be reachable through the view head (or pinned to
       a constant). *)
    let distinguished = Cq.Query.head_vars query in
    let body = Cq.Query.body query in
    let covered_vars =
      List.concat_map (fun i -> Cq.Atom.var_list (subgoal query i)) covered
      |> List.sort_uniq String.compare
    in
    let uncovered_vars =
      List.concat
        (List.filteri (fun i _ -> not (List.mem i covered)) body
        |> List.map Cq.Atom.var_list)
    in
    let needed v =
      List.mem v distinguished || List.mem v uncovered_vars
    in
    if List.for_all (fun v -> (not (needed v)) || exposed v) covered_vars
    then Some { view; atom; covered }
    else None
