module Smap = Map.Make (String)

type export = { view : Query.t; citations : Query.t list }

type t = { rules : Rule.t list; strat : Stratify.t; exports : export list }

let rules t = t.rules
let exports t = t.exports
let strata t = t.strat.Stratify.strata
let idb_preds t = t.strat.Stratify.idb
let recursive_preds t = t.strat.Stratify.recursive
let is_idb t p = List.mem p t.strat.Stratify.idb

let arity_of_idb strat p =
  List.find_map
    (fun stratum ->
      List.find_map
        (fun r ->
          if Rule.head_pred r = p then Some (Atom.arity (Rule.head r))
          else None)
        stratum)
    strat.Stratify.strata

let check_export strat e =
  let check_query what q =
    List.fold_left
      (fun acc a ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            let p = Atom.pred a in
            match arity_of_idb strat p with
            | Some n when n <> Atom.arity a ->
                Error
                  (Printf.sprintf
                     "%s %s uses IDB predicate %s with arity %d (defined \
                      with %d)"
                     what (Query.name q) p (Atom.arity a) n)
            | _ -> Ok ()))
      (Ok ()) (Query.body q)
  in
  let name = Query.name e.view in
  if List.mem name strat.Stratify.idb then
    Error
      (Printf.sprintf "export %s shadows an IDB predicate of the program"
         name)
  else
    List.fold_left
      (fun acc q ->
        match acc with Error _ -> acc | Ok () -> check_query "citation" q)
      (check_query "export" e.view)
      e.citations

let make ?(exports = []) rules =
  match Stratify.run rules with
  | Error e -> Error e
  | Ok strat -> (
      let bad =
        List.fold_left
          (fun acc e ->
            match acc with
            | Error _ -> acc
            | Ok () -> check_export strat e)
          (Ok ()) exports
      in
      match bad with
      | Error e -> Error e
      | Ok () -> Ok { rules; strat; exports })

(* Unfolding is restricted to predicates whose definition is a plain
   macro: one rule, no negation, not recursive, head a tuple of distinct
   variables.  Everything else — recursion above all — is left as an
   atom over the materialized extent. *)
let unfoldable_defs t =
  List.fold_left
    (fun defs p ->
      if Stratify.is_recursive t.strat p then defs
      else
        match List.filter (fun r -> Rule.head_pred r = p) t.rules with
        | [ r ] when Rule.negative r = [] ->
            let args = Atom.args (Rule.head r) in
            let vars =
              List.filter_map
                (function Term.Var v -> Some v | Term.Const _ -> None)
                args
            in
            if
              List.length vars = List.length args
              && List.length (List.sort_uniq compare vars) = List.length vars
            then Smap.add p r defs
            else defs
        | _ -> defs)
    Smap.empty t.strat.Stratify.idb

let max_unfold_depth = 10

let unfold_query defs counter q =
  let is_truth a = Atom.pred a = "True" && Atom.args a = [] in
  let rec step depth q =
    if depth >= max_unfold_depth then q
    else
      let changed = ref false in
      let body =
        List.concat_map
          (fun a ->
            match Smap.find_opt (Atom.pred a) defs with
            | None -> [ a ]
            | Some r ->
                changed := true;
                incr counter;
                let prefix = Printf.sprintf "u%d_" !counter in
                let r = Rule.rename (fun v -> prefix ^ v) r in
                let subst =
                  Subst.of_list
                    (List.map2
                       (fun h arg ->
                         match h with
                         | Term.Var v -> (v, arg)
                         | Term.Const _ -> assert false)
                       (Atom.args (Rule.head r))
                       (Atom.args a))
                in
                Subst.apply_atoms subst (Rule.positive r))
          (Query.body q)
      in
      if not !changed then q
      else
        let body =
          match List.filter (fun a -> not (is_truth a)) body with
          | [] -> [ Atom.make "True" [] ]
          | atoms -> atoms
        in
        let q' =
          Query.make_exn
            ~params:(Query.params q)
            ~name:(Query.name q) ~head:(Query.head q) ~body ()
        in
        step (depth + 1) q'
  in
  step 0 q

let unfold_exports t =
  let defs = unfoldable_defs t in
  if Smap.is_empty defs then t.exports
  else
    let counter = ref 0 in
    List.map
      (fun e -> { e with view = unfold_query defs counter e.view })
      t.exports

let parse src =
  match Parser.parse_statements src with
  | Error e -> Error e
  | Ok stmts -> (
      (* exports accumulate in reverse; a [cite] attaches to the
         closest preceding [export] *)
      let rec fold rules exps = function
        | [] -> Ok (List.rev rules, List.rev_map (fun (v, cs) ->
            { view = v; citations = List.rev cs }) exps)
        | Parser.Srule r :: rest -> fold (r :: rules) exps rest
        | Parser.Sexport q :: rest -> fold rules ((q, []) :: exps) rest
        | Parser.Scite q :: rest -> (
            match exps with
            | [] -> Error "cite statement before any export"
            | (v, cs) :: tl -> fold rules ((v, q :: cs) :: tl) rest)
      in
      match fold [] [] stmts with
      | Error e -> Error e
      | Ok (rules, exports) -> make ~exports rules)

let parse_exn src =
  match parse src with Ok t -> t | Error e -> invalid_arg e

let pp ppf t =
  List.iter (fun r -> Format.fprintf ppf "%a;@." Rule.pp r) t.rules;
  List.iter
    (fun e ->
      Format.fprintf ppf "export %a;@." Query.pp e.view;
      List.iter
        (fun q -> Format.fprintf ppf "cite %a;@." Query.pp q)
        e.citations)
    t.exports

let to_string t = Format.asprintf "%a" pp t
