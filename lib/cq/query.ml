type t = {
  name : string;
  params : string list;
  head : Term.t list;
  body : Atom.t list;
}

let uniq_in_order names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    names

let vars_of_terms terms =
  uniq_in_order
    (List.filter_map (function Term.Var v -> Some v | Term.Const _ -> None) terms)

let head_vars q = vars_of_terms q.head
let body_vars q = uniq_in_order (List.concat_map Atom.var_list q.body)
let all_vars q = uniq_in_order (head_vars q @ body_vars q)

let check ?(params = []) ~name ~head ~body () =
  if body = [] then Error (Printf.sprintf "query %s: empty body" name)
  else
    let hv = vars_of_terms head in
    let bv = List.concat_map Atom.var_list body in
    match List.find_opt (fun v -> not (List.mem v bv)) hv with
    | Some v -> Error (Printf.sprintf "query %s: unsafe head variable %s" name v)
    | None -> (
        match List.find_opt (fun p -> not (List.mem p hv)) params with
        | Some p ->
            Error
              (Printf.sprintf "query %s: parameter %s does not appear in head"
                 name p)
        | None -> Ok { name; params = uniq_in_order params; head; body })

let make ?params ~name ~head ~body () = check ?params ~name ~head ~body ()

let make_exn ?params ~name ~head ~body () =
  match check ?params ~name ~head ~body () with
  | Ok q -> q
  | Error e -> invalid_arg ("Query.make_exn: " ^ e)

let name q = q.name
let params q = q.params
let head q = q.head
let body q = q.body
let arity q = List.length q.head
let is_parameterized q = q.params <> []

let existential_vars q =
  let hv = head_vars q in
  List.filter (fun v -> not (List.mem v hv)) (body_vars q)

let position_of_head_var q v =
  let rec find i = function
    | [] -> None
    | Term.Var v' :: _ when String.equal v v' -> Some i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 q.head

let param_positions q =
  List.map
    (fun p ->
      let rec find i = function
        | [] ->
            invalid_arg
              (Printf.sprintf "Query.param_positions %s: %s not in head" q.name p)
        | Term.Var v :: _ when String.equal v p -> i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 q.head)
    q.params

let predicates q =
  List.sort_uniq String.compare (List.map Atom.pred q.body)

let apply_subst s q =
  let head = List.map (Subst.apply_term s) q.head in
  let body = Subst.apply_atoms s q.body in
  let params =
    List.filter_map
      (fun p ->
        match Subst.find s p with
        | None -> Some p
        | Some (Term.Var v) -> Some v
        | Some (Term.Const _) -> None)
      q.params
  in
  { q with params; head; body }

let freshen q i =
  let s =
    Subst.of_list
      (List.map
         (fun v -> (v, Term.Var (Printf.sprintf "%s_%d" v i)))
         (all_vars q))
  in
  apply_subst s q

let strip_params q = { q with params = [] }
let with_name name q = { q with name }

let compare_syntactic a b =
  match String.compare a.name b.name with
  | 0 -> (
      match List.compare String.compare a.params b.params with
      | 0 -> (
          match List.compare Term.compare a.head b.head with
          | 0 -> List.compare Atom.compare a.body b.body
          | c -> c)
      | c -> c)
  | c -> c

let equal_syntactic a b = compare_syntactic a b = 0

let map_constants f q =
  let term = function Term.Const c -> Term.Const (f c) | v -> v in
  {
    q with
    head = List.map term q.head;
    body =
      List.map
        (fun a -> Atom.make (Atom.pred a) (List.map term (Atom.args a)))
        q.body;
  }

let pp ppf q =
  let pp_terms ppf ts =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
      Term.pp ppf ts
  in
  let pp_atoms ppf atoms =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
      Atom.pp ppf atoms
  in
  if q.params <> [] then
    Format.fprintf ppf "λ%s. " (String.concat "," q.params);
  Format.fprintf ppf "@[<2>%s(%a) :-@ %a@]" q.name pp_terms q.head pp_atoms
    q.body

let to_string q = Format.asprintf "%a" pp q
