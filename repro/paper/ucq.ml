open Dc_cq
module R = Dc_relational

type t = { name : string; disjuncts : Query.t list }

let make ~name = function
  | [] -> Error (Printf.sprintf "ucq %s: no disjuncts" name)
  | q :: rest as disjuncts ->
      if List.for_all (fun q' -> Query.arity q' = Query.arity q) rest then
        Ok { name; disjuncts }
      else Error (Printf.sprintf "ucq %s: disjuncts of mixed arity" name)

let make_exn ~name qs =
  match make ~name qs with Ok u -> u | Error e -> invalid_arg e

let name u = u.name
let disjuncts u = u.disjuncts

let arity u =
  match u.disjuncts with q :: _ -> Query.arity q | [] -> assert false

let contained_cq q u =
  List.exists (fun d -> Containment.contained q d) u.disjuncts

let contained u1 u2 =
  List.for_all (fun d -> contained_cq d u2) u1.disjuncts

let equivalent u1 u2 = contained u1 u2 && contained u2 u1

let run db u =
  let add m tuple disjunct bs =
    let existing = Option.value ~default:[] (R.Tuple.Map.find_opt tuple m) in
    R.Tuple.Map.add tuple ((disjunct, bs) :: existing) m
  in
  let m =
    List.fold_left
      (fun m d ->
        List.fold_left
          (fun m (tuple, bs) -> add m tuple d bs)
          m (Eval.run db d))
      R.Tuple.Map.empty u.disjuncts
  in
  R.Tuple.Map.bindings m
  |> List.map (fun (t, contribs) -> (t, List.rev contribs))

let result db u = List.map fst (run db u)

let pp ppf u =
  Format.fprintf ppf "@[<v2>%s =@ %a@]" u.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ∪ ")
       Query.pp)
    u.disjuncts
