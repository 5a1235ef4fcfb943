type t = { pred : string; args : Term.t list }

let make pred args = { pred; args }
let pred a = a.pred
let args a = a.args
let arity a = List.length a.args

let var_list a =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun t ->
      match t with
      | Term.Var v when not (Hashtbl.mem seen v) ->
          Hashtbl.add seen v ();
          Some v
      | _ -> None)
    a.args

let constants a =
  List.filter_map (function Term.Const c -> Some c | Term.Var _ -> None) a.args

let compare a b =
  match String.compare a.pred b.pred with
  | 0 -> List.compare Term.compare a.args b.args
  | c -> c

let pp ppf a =
  Format.fprintf ppf "%s(%a)" a.pred
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
       Term.pp)
    a.args
