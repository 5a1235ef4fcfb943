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

(* A parameter of a cited atom reads a constant of the rewriting or one
   of the template's variables, by index into a projection. *)
type source = Fixed of R.Value.t | Var of int

(* What a template is evaluated as: the rewriting's expansion over the
   base schema, the expansion's variables to project on, and, when head
   unification equated template variables or bound one to a constant,
   each template variable's source in that projection. *)
type unfolding = {
  expansion : Cq.Query.t;
  evars : string list;
  widen : source array option;
}

type template = {
  vars : string list;
  cited : (string * (string * source) list) list;
  constant : Cite_expr.t option;
  unfolding : unfolding option;  (** [None]: the rewriting is vacuous *)
}

let vars t = t.vars

let expansion t = Option.map (fun u -> u.expansion) t.unfolding

(* The expansion variables are listed in order of first occurrence among
   the template variables' images, so widening keeps the projections in
   {!R.Tuple.compare} order. *)
let unfold views vars rewriting =
  Option.map
    (fun (expansion, subst) ->
      let terms =
        List.map (fun v -> Cq.Subst.apply_term subst (Cq.Term.Var v)) vars
      in
      let evars =
        List.fold_left
          (fun acc -> function
            | Cq.Term.Var v when not (List.mem v acc) -> acc @ [ v ]
            | _ -> acc)
          [] terms
      in
      let widen =
        if List.equal String.equal evars vars then None
        else
          Some
            (Array.of_list
               (List.map
                  (function
                    | Cq.Term.Const c -> Fixed c
                    | Cq.Term.Var v ->
                        Var (Option.get (List.find_index (String.equal v) evars)))
                  terms))
      in
      { expansion; evars; widen })
    (Dc_rewriting.Expansion.expand views rewriting)

let rule name t =
  Option.map
    (fun { expansion; evars; widen } ->
      let var i = Cq.Term.Var (List.nth evars i) in
      let projection =
        match widen with
        | None -> List.mapi (fun i _ -> var i) evars
        | Some w ->
            Array.to_list
              (Array.map
                 (function Fixed c -> Cq.Term.Const c | Var i -> var i)
                 w)
      in
      Cq.Rule.make_exn
        ~head:(Cq.Atom.make name (Cq.Query.head expansion @ projection))
        ~body:(List.map (fun a -> Cq.Rule.Pos a) (Cq.Query.body expansion)))
    t.unfolding

let fold ?cache ?tick db t f init =
  match t.unfolding with
  | None -> init
  | Some { expansion; evars; widen } ->
      let f =
        match widen with
        | None -> f
        | Some w ->
            let widen_one p =
              Array.map (function Fixed c -> c | Var i -> p.(i)) w
            in
            fun tuple ps acc -> f tuple (List.map widen_one ps) acc
      in
      Cq.Eval.fold_projected ?cache ?tick db expansion evars f init

let run ?cache db t =
  List.rev (fold ?cache db t (fun tuple ps acc -> (tuple, ps) :: acc) [])

let projection_expr t proj =
  Cite_expr.joint
    (List.map
       (fun (view, params) ->
         Cite_expr.leaf ~view
           ~params:
             (List.map
                (fun (p, src) ->
                  (p, match src with Fixed c -> c | Var i -> proj.(i)))
                params))
       t.cited)

let template views cviews rewriting =
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
  let vars = !vars in
  let t =
    {
      vars;
      cited;
      constant = None;
      unfolding = unfold views vars rewriting;
    }
  in
  if t.vars = [] then { t with constant = Some (projection_expr t [||]) }
  else t

let map_constants f t =
  let source = function Fixed c -> Fixed (f c) | s -> s in
  let t =
    {
      t with
      cited =
        List.map
          (fun (view, params) ->
            (view, List.map (fun (p, src) -> (p, source src)) params))
          t.cited;
      unfolding =
        Option.map
          (fun u ->
            {
              u with
              expansion = Cq.Query.map_constants f u.expansion;
              widen = Option.map (Array.map source) u.widen;
            })
          t.unfolding;
    }
  in
  match t.constant with
  | None -> t
  | Some _ -> { t with constant = Some (projection_expr t [||]) }

let rewriting_expr t projections =
  match t.constant with
  | Some e -> e
  | None ->
      Cite_expr.alt (List.map (projection_expr t) projections)

let projected_expr = function
  | [ (t, projections) ] -> rewriting_expr t projections
  | contribs ->
      Cite_expr.alt_r
        (List.map (fun (t, projections) -> rewriting_expr t projections)
           contribs)
