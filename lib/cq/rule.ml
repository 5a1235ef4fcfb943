module Sset = Set.Make (String)

type literal = Pos of Atom.t | Neg of Atom.t

type t = { head : Atom.t; body : literal list }

let head r = r.head
let body r = r.body

let positive r =
  List.filter_map (function Pos a -> Some a | Neg _ -> None) r.body

let negative r =
  List.filter_map (function Neg a -> Some a | Pos _ -> None) r.body

let head_pred r = Atom.pred r.head

let atom_of = function Pos a | Neg a -> a

let make ~head ~body =
  if body = [] then Error "rule has an empty body"
  else
    let pos_vars =
      List.fold_left
        (fun s -> function
          | Pos a -> List.fold_left (fun s v -> Sset.add v s) s (Atom.var_list a)
          | Neg _ -> s)
        Sset.empty body
    in
    let head_vars = Atom.var_list head in
    let neg_vars =
      List.concat_map
        (function Neg a -> Atom.var_list a | Pos _ -> [])
        body
    in
    match List.find_opt (fun v -> not (Sset.mem v pos_vars)) head_vars with
    | Some v ->
        Error
          (Printf.sprintf
             "unsafe rule: head variable %s does not occur in a positive \
              body literal"
             v)
    | None -> (
        match List.find_opt (fun v -> not (Sset.mem v pos_vars)) neg_vars with
        | Some v ->
            Error
              (Printf.sprintf
                 "unsafe rule: variable %s of a negated literal does not \
                  occur in a positive body literal"
                 v)
        | None -> Ok { head; body })

let make_exn ~head ~body =
  match make ~head ~body with Ok r -> r | Error e -> invalid_arg e

let body_preds r =
  let rec go seen acc = function
    | [] -> List.rev acc
    | lit :: rest ->
        let p = Atom.pred (atom_of lit) in
        let neg = match lit with Neg _ -> true | Pos _ -> false in
        if List.mem_assoc p seen then
          (* already recorded; upgrade the flag when this occurrence is
             negated *)
          let seen =
            if neg then (p, true) :: List.remove_assoc p seen else seen
          in
          let acc =
            if neg then
              List.map (fun (q, f) -> if q = p then (q, true) else (q, f)) acc
            else acc
          in
          go seen acc rest
        else go ((p, neg) :: seen) ((p, neg) :: acc) rest
  in
  go [] [] r.body

let rename f r =
  let ren_term = function
    | Term.Var v -> Term.Var (f v)
    | Term.Const _ as t -> t
  in
  let ren_atom a = Atom.make (Atom.pred a) (List.map ren_term (Atom.args a)) in
  {
    head = ren_atom r.head;
    body =
      List.map
        (function Pos a -> Pos (ren_atom a) | Neg a -> Neg (ren_atom a))
        r.body;
  }

let pp ppf r =
  let pp_lit ppf = function
    | Pos a -> Atom.pp ppf a
    | Neg a -> Format.fprintf ppf "not %a" Atom.pp a
  in
  Format.fprintf ppf "%a :- %a" Atom.pp r.head
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_lit)
    r.body
