type attribute = { name : string; ty : Value.ty }

type t = { rel_name : string; attrs : attribute list; key : string list }

let attr ?(ty = Value.TAny) name = { name; ty }

let make ?(key = []) rel_name attrs =
  let names = List.map (fun a -> a.name) attrs in
  let uniq = List.sort_uniq String.compare names in
  if List.length uniq <> List.length names then
    invalid_arg (Printf.sprintf "Schema.make %s: duplicate attribute" rel_name);
  List.iter
    (fun k ->
      if not (List.mem k names) then
        invalid_arg
          (Printf.sprintf "Schema.make %s: key column %s not an attribute"
             rel_name k))
    key;
  { rel_name; attrs; key }

let name s = s.rel_name
let attributes s = s.attrs
let arity s = List.length s.attrs
let key s = s.key

let position s a =
  let rec go i = function
    | [] -> None
    | { name; _ } :: _ when String.equal name a -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 s.attrs

let key_positions s =
  List.filter_map (fun k -> position s k) s.key

(* Top level, so a check allocates no closure: relations check every
   row they are built from. *)
let rec conforms_from row i = function
  | [] -> i = Array.length row
  | a :: rest ->
      i < Array.length row
      && Value.conforms row.(i) a.ty
      && conforms_from row (i + 1) rest

let conforms s row = conforms_from row 0 s.attrs

let equal a b =
  String.equal a.rel_name b.rel_name
  && a.key = b.key
  && List.length a.attrs = List.length b.attrs
  && List.for_all2
       (fun x y -> String.equal x.name y.name && x.ty = y.ty)
       a.attrs b.attrs

let pp ppf s =
  let pp_attr ppf a =
    Format.fprintf ppf "%s:%a%s" a.name Value.pp_ty a.ty
      (if List.mem a.name s.key then "*" else "")
  in
  Format.fprintf ppf "%s(%a)" s.rel_name
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_attr)
    s.attrs
