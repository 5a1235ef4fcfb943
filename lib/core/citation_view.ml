module Cq = Dc_cq
module R = Dc_relational

type t = {
  view : Dc_rewriting.View.t;
  citations : Cq.Query.t list;
  post : Citation.t -> Citation.t;
}

let make ?(post = Fun.id) ~view ~citations () =
  if citations = [] then
    Error (Printf.sprintf "citation view %s: no citation query" (Cq.Query.name view))
  else
    let vparams = Cq.Query.params view in
    let bad =
      List.find_opt
        (fun cq ->
          List.exists (fun p -> not (List.mem p vparams)) (Cq.Query.params cq))
        citations
    in
    match bad with
    | Some cq ->
        Error
          (Printf.sprintf
             "citation view %s: citation query %s uses parameters not in the \
              view's"
             (Cq.Query.name view) (Cq.Query.name cq))
    | None -> Ok { view = Dc_rewriting.View.of_query view; citations; post }

let make_exn ?post ~view ~citations () =
  match make ?post ~view ~citations () with
  | Ok cv -> cv
  | Error e -> invalid_arg e

let view cv = cv.view
let definition cv = Dc_rewriting.View.definition cv.view
let citation_queries cv = cv.citations
let name cv = Dc_rewriting.View.name cv.view
let params cv = Dc_rewriting.View.params cv.view

let instantiate cq valuation =
  let s =
    Cq.Subst.of_list
      (List.filter_map
         (fun p ->
           Option.map
             (fun v -> (p, Cq.Term.Const v))
             (List.assoc_opt p valuation))
         (Cq.Query.params cq))
  in
  Cq.Query.apply_subst s cq

let cite ?cache cv db valuation =
  List.iter
    (fun p ->
      if not (List.mem_assoc p valuation) then
        invalid_arg
          (Printf.sprintf "Citation_view.cite %s: parameter %s not given"
             (name cv) p))
    (params cv);
  let snippets =
    List.concat_map
      (fun cq ->
        let inst = instantiate cq valuation in
        (* Field names come from the uninstantiated head, so a
           parameter column keeps its name rather than becoming an
           anonymous constant. *)
        let names =
          List.mapi
            (fun i t ->
              match t with
              | Cq.Term.Var v -> v
              | Cq.Term.Const _ -> Printf.sprintf "c%d" i)
            (Cq.Query.head cq)
        in
        List.map
          (fun (tuple, _) ->
            Snippet.of_tuple ~source:(Cq.Query.name cq) names tuple)
          (Cq.Eval.run ?cache db inst))
      cv.citations
  in
  let relevant =
    List.filter (fun (p, _) -> List.mem p (params cv)) valuation
  in
  cv.post (Citation.make ~view:(name cv) ~params:relevant ~snippets)

module Set = struct
  module Smap = Map.Make (String)

  type citation_view = t
  type nonrec t = citation_view Smap.t

  let empty = Smap.empty

  let add s cv =
    let n = name cv in
    if Smap.mem n s then
      Error (Printf.sprintf "duplicate citation view %s" n)
    else Ok (Smap.add n cv s)

  let of_list cvs =
    List.fold_left
      (fun s cv ->
        match add s cv with Ok s -> s | Error e -> invalid_arg e)
      empty cvs

  let find s n = Smap.find_opt n s

  let find_exn s n =
    match find s n with Some cv -> cv | None -> raise Not_found

  let to_list s = List.map snd (Smap.bindings s)
  let size s = Smap.cardinal s

  let view_set s =
    Dc_rewriting.View.Set.of_list (List.map (fun cv -> cv.view) (to_list s))
end
