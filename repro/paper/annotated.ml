open Dc_provenance
module R = Dc_relational
module Smap = Map.Make (String)

let tuple_id rel tuple =
  Printf.sprintf "%s(%s)" rel
    (String.concat "," (List.map R.Value.to_string (R.Tuple.to_list tuple)))

module Make (K : Semiring.S) = struct
  type t = { support : R.Database.t; ann : K.t R.Tuple.Map.t Smap.t }

  let of_database annot db =
    let ann = ref Smap.empty in
    let support =
      List.fold_left
        (fun support rel ->
          let name = R.Relation.name rel in
          let anns, kept =
            R.Relation.fold
              (fun tuple (anns, kept) ->
                let k = annot name tuple in
                if K.equal k K.zero then (anns, R.Relation.delete kept tuple)
                else (R.Tuple.Map.add tuple k anns, kept))
              rel
              (R.Tuple.Map.empty, rel)
          in
          ann := Smap.add name anns !ann;
          R.Database.add_relation support kept)
        R.Database.empty (R.Database.relations db)
    in
    { support; ann = !ann }

  let support t = t.support

  let annotation t rel tuple =
    match Smap.find_opt rel t.ann with
    | None -> K.zero
    | Some anns ->
        Option.value ~default:K.zero (R.Tuple.Map.find_opt tuple anns)

  let binding_annotation t q binding =
    List.fold_left
      (fun acc atom ->
        if Dc_cq.Atom.pred atom = "True" && Dc_cq.Atom.args atom = [] then acc
        else
          let tuple =
            R.Tuple.make
              (List.map
                 (function
                   | Dc_cq.Term.Const c -> c
                   | Dc_cq.Term.Var v -> Dc_cq.Eval.Binding.find_exn binding v)
                 (Dc_cq.Atom.args atom))
          in
          K.times acc (annotation t (Dc_cq.Atom.pred atom) tuple))
      K.one (Dc_cq.Query.body q)

  let eval t q =
    Dc_cq.Eval.run t.support q
    |> List.map (fun (tuple, bindings) ->
           let k =
             List.fold_left
               (fun acc b -> K.plus acc (binding_annotation t q b))
               K.zero bindings
           in
           (tuple, k))

  let eval_annotation t q tuple =
    List.fold_left
      (fun acc (t', k) -> if R.Tuple.equal t' tuple then K.plus acc k else acc)
      K.zero (eval t q)
end

let rec citation_polynomial (e : Dc_citation.Cite_expr.t) =
  match e with
  | Leaf _ -> Polynomial.var (Dc_citation.Cite_expr.to_string e)
  | Joint xs ->
      List.fold_left
        (fun acc x -> Polynomial.times acc (citation_polynomial x))
        Polynomial.one xs
  | Alt xs | AltR xs | Agg xs ->
      List.fold_left
        (fun acc x -> Polynomial.plus acc (citation_polynomial x))
        Polynomial.zero xs

module Poly = struct
  module M = Make (Polynomial.Free)

  type t = M.t

  let of_database db =
    M.of_database (fun rel tuple -> Polynomial.var (tuple_id rel tuple)) db

  let eval = M.eval
end
