type tgd = { name : string; body : Atom.t list; head : Atom.t list }
type egd = { name : string; body : Atom.t list; equal : string * string }

type t = Tgd of tgd | Egd of egd

let tgd ~name ~body ~head =
  if body = [] then Error (Printf.sprintf "tgd %s: empty body" name)
  else if head = [] then Error (Printf.sprintf "tgd %s: empty head" name)
  else Ok (Tgd { name; body; head })

let egd ~name ~body ~equal:(x, y) =
  let body_vars = List.concat_map Atom.var_list body in
  if body = [] then Error (Printf.sprintf "egd %s: empty body" name)
  else if not (List.mem x body_vars && List.mem y body_vars) then
    Error
      (Printf.sprintf "egd %s: equated variables must occur in the body" name)
  else Ok (Egd { name; body; equal = (x, y) })

let col_var prefix i = Printf.sprintf "%s%d" prefix i

let functional_dependency ~rel ~arity ~determinant ~dependent =
  List.iter
    (fun c ->
      if c < 0 || c >= arity then
        invalid_arg
          (Printf.sprintf "functional_dependency %s: column %d out of range"
             rel c))
    (determinant @ dependent);
  (* two atoms agreeing on the determinant columns *)
  let atom prefix =
    Atom.make rel
      (List.init arity (fun i ->
           if List.mem i determinant then Term.Var (col_var "k" i)
           else Term.Var (col_var prefix i)))
  in
  List.map
    (fun dep_col ->
      let body = [ atom "a"; atom "b" ] in
      match
        egd
          ~name:(Printf.sprintf "fd_%s_%d" rel dep_col)
          ~body
          ~equal:(col_var "a" dep_col, col_var "b" dep_col)
      with
      | Ok d -> d
      | Error e -> invalid_arg e)
    (List.filter (fun c -> not (List.mem c determinant)) dependent)

let key_of_schema schema =
  let module S = Dc_relational.Schema in
  match S.key_positions schema with
  | [] -> []
  | key_cols ->
      let arity = S.arity schema in
      let dependent =
        List.filter
          (fun i -> not (List.mem i key_cols))
          (List.init arity Fun.id)
      in
      if dependent = [] then []
      else
        functional_dependency ~rel:(S.name schema) ~arity
          ~determinant:key_cols ~dependent

let inclusion ~name ~src:(src_rel, src_cols) ~dst:(dst_rel, dst_cols)
    ~src_arity ~dst_arity =
  if List.length src_cols <> List.length dst_cols then
    invalid_arg (Printf.sprintf "inclusion %s: column lists differ" name);
  let src_atom =
    Atom.make src_rel
      (List.init src_arity (fun i -> Term.Var (col_var "s" i)))
  in
  (* destination columns matched to source ones share variables; the
     rest are existential in the head *)
  let shared =
    List.combine dst_cols (List.map (fun c -> col_var "s" c) src_cols)
  in
  let dst_atom =
    Atom.make dst_rel
      (List.init dst_arity (fun i ->
           match List.assoc_opt i shared with
           | Some v -> Term.Var v
           | None -> Term.Var (col_var "e" i)))
  in
  match tgd ~name ~body:[ src_atom ] ~head:[ dst_atom ] with
  | Ok d -> d
  | Error e -> invalid_arg e
