module Smap = Map.Make (String)

type t = Term.t Smap.t

let empty = Smap.empty
let singleton v t = Smap.singleton v t
let of_list l = List.fold_left (fun m (v, t) -> Smap.add v t m) empty l
let to_list m = Smap.bindings m
let find m v = Smap.find_opt v m
let bind m v t = Smap.add v t m

let extend m v t =
  match Smap.find_opt v m with
  | None -> Some (Smap.add v t m)
  | Some existing -> if Term.equal existing t then Some m else None

let apply_term m = function
  | Term.Const _ as t -> t
  | Term.Var v as t -> ( match Smap.find_opt v m with Some t' -> t' | None -> t)

let apply_atom m a = Atom.make (Atom.pred a) (List.map (apply_term m) (Atom.args a))
let apply_atoms m atoms = List.map (apply_atom m) atoms

let compose s1 s2 =
  let s1' = Smap.map (apply_term s2) s1 in
  Smap.union (fun _ t1 _ -> Some t1) s1' s2
