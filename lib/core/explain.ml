module R = Dc_relational
module Cq = Dc_cq

type binding_line = {
  rewriting : string;
  binding : (string * R.Value.t) list;
  leaves : Cite_expr.leaf list;
}

let pin_head q head_tuple =
  let rec build subst terms i =
    match terms with
    | [] -> Some subst
    | Cq.Term.Const c :: rest ->
        if R.Value.equal c (R.Tuple.get head_tuple i) then
          build subst rest (i + 1)
        else None
    | Cq.Term.Var v :: rest -> (
        match
          Cq.Subst.extend subst v (Cq.Term.Const (R.Tuple.get head_tuple i))
        with
        | Some subst -> build subst rest (i + 1)
        | None -> None)
  in
  Option.map
    (fun s -> Cq.Query.apply_subst s q)
    (build Cq.Subst.empty (Cq.Query.head q) 0)

let tuple engine (result : Engine.result) t =
  let cviews = Engine.citation_views engine in
  let db = Engine.merged_database engine in
  let evaluated =
    match result.selected with
    | [] -> [ Cq.Query.strip_params result.query ]
    | selected -> selected
  in
  List.concat_map
    (fun rw ->
      match pin_head rw t with
      | None -> []
      | Some rw' ->
          List.map
            (fun b ->
              let leaves =
                List.filter_map
                  (fun atom ->
                    match Compute.leaf_of_atom cviews atom b with
                    | Some (Cite_expr.Leaf l) -> Some l
                    | Some _ | None -> None)
                  (Cq.Query.body rw')
              in
              {
                rewriting = Cq.Query.name rw;
                binding = Cq.Eval.Binding.to_list b;
                leaves;
              })
            (Cq.Eval.bindings db rw'))
    evaluated

let render engine result t =
  let lines = tuple engine result t in
  if lines = [] then
    Format.asprintf "%a is not in the answer" R.Tuple.pp t
  else
    let buf = Buffer.create 512 in
    Buffer.add_string buf (Format.asprintf "why %a:\n" R.Tuple.pp t);
    List.iter
      (fun line ->
        Buffer.add_string buf
          (Printf.sprintf "  via %s with {%s}" line.rewriting
             (String.concat ", "
                (List.map
                   (fun (v, x) -> v ^ "=" ^ R.Value.to_string x)
                   line.binding)));
        if line.leaves <> [] then
          Buffer.add_string buf
            (Format.asprintf "\n    cites %a"
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.fprintf ppf " · ")
                  (fun ppf (l : Cite_expr.leaf) ->
                    Cite_expr.pp ppf
                      (Cite_expr.leaf ~view:l.view ~params:l.params)))
               line.leaves);
        Buffer.add_char buf '\n')
      lines;
    (match
       List.find_opt
         (fun (tc : Engine.tuple_citation) -> R.Tuple.equal tc.tuple t)
         result.tuples
     with
    | Some tc ->
        Buffer.add_string buf
          (Format.asprintf "  formal citation: %a" Cite_expr.pp tc.expr)
    | None -> ());
    Buffer.contents buf
