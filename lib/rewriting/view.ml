module Q = Dc_cq.Query

type t = { def : Q.t }

let of_query def = { def }
let definition v = v.def
let name v = Q.name v.def
let params v = Q.params v.def
let is_parameterized v = Q.is_parameterized v.def
let base_predicates v = Q.predicates v.def
let freshen v i = { def = Q.freshen v.def i }

module Set = struct
  module Smap = Map.Make (String)

  type view = t

  type t = { by_name : view Smap.t; by_pred : view list Smap.t }

  let empty = { by_name = Smap.empty; by_pred = Smap.empty }

  let add s v =
    let n = name v in
    if Smap.mem n s.by_name then
      Error (Printf.sprintf "duplicate view name %s" n)
    else
      let by_pred =
        List.fold_left
          (fun m p ->
            let existing = Option.value ~default:[] (Smap.find_opt p m) in
            Smap.add p (existing @ [ v ]) m)
          s.by_pred (base_predicates v)
      in
      Ok { by_name = Smap.add n v s.by_name; by_pred }

  let add_exn s v =
    match add s v with Ok s -> s | Error e -> invalid_arg e

  let of_list vs = List.fold_left add_exn empty vs
  let find s n = Smap.find_opt n s.by_name

  let to_list s = List.map snd (Smap.bindings s.by_name)
  let size s = Smap.cardinal s.by_name

  let with_predicate s p =
    Option.value ~default:[] (Smap.find_opt p s.by_pred)
end
