module R = Dc_relational
module Cq = Dc_cq

let stratum_preds rules =
  List.fold_left
    (fun acc r ->
      let p = Cq.Rule.head_pred r in
      if List.mem p acc then acc else acc @ [ p ])
    [] rules

(* IDB extents are named like query results, after the first defining
   rule's head. *)
let idb_schema p rules =
  match List.filter (fun r -> Cq.Rule.head_pred r = p) rules with
  | r :: _ -> Cq.Eval.head_schema p (Cq.Atom.args (Cq.Rule.head r))
  | [] -> invalid_arg "Naive.idb_schema: no rules"

(* An empty extent for every body predicate the database lacks, so
   plans always find their relations. *)
let with_placeholders db rules =
  List.fold_left
    (fun db r ->
      List.fold_left
        (fun db lit ->
          let a = match lit with Cq.Rule.Pos a | Cq.Rule.Neg a -> a in
          let p = Cq.Atom.pred a in
          if p = "True" || R.Database.mem_relation db p then db
          else
            R.Database.add_relation db
              (R.Relation.empty
                 (R.Schema.make p
                    (List.init (Cq.Atom.arity a) (fun i ->
                         R.Schema.attr (Printf.sprintf "a%d" i))))))
        db (Cq.Rule.body r))
    db rules

(* One rule's derived head tuples: the positive body through the
   compiled kernel, then the negated atoms (ground under any positive
   binding) as a membership filter. *)
let eval_rule cache db r =
  let head = Cq.Rule.head r in
  let pos = match Cq.Rule.positive r with [] -> [ Cq.Atom.make "True" [] ] | p -> p in
  let q =
    Cq.Query.make_exn ~name:(Cq.Atom.pred head) ~head:(Cq.Atom.args head)
      ~body:pos ()
  in
  match Cq.Rule.negative r with
  | [] -> R.Relation.tuples (Cq.Eval.result ~cache db q)
  | neg ->
      let negated_holds b a =
        match R.Database.relation db (Cq.Atom.pred a) with
        | None -> false
        | Some rel ->
            R.Relation.mem rel
              (R.Tuple.make
                 (List.map
                    (function
                      | Cq.Term.Const c -> c
                      | Cq.Term.Var v -> Cq.Eval.Binding.find_exn b v)
                    (Cq.Atom.args a)))
      in
      Cq.Eval.bindings ~cache db q
      |> List.filter_map (fun b ->
             if List.exists (negated_holds b) neg then None
             else Some (Cq.Eval.tuple_of_binding q b))

let eval_fix cache wdb rules =
  let preds = stratum_preds rules in
  let full = Hashtbl.create 4 in
  List.iter
    (fun p -> Hashtbl.replace full p (R.Relation.empty (idb_schema p rules)))
    preds;
  let install wdb =
    List.fold_left
      (fun wdb p -> R.Database.add_relation wdb (Hashtbl.find full p))
      wdb preds
  in
  let sizes () =
    List.map (fun p -> R.Relation.cardinality (Hashtbl.find full p)) preds
  in
  let rec loop wdb =
    let wdb = install wdb in
    let before = sizes () in
    List.iter
      (fun r ->
        let p = Cq.Rule.head_pred r in
        Hashtbl.replace full p
          (R.Relation.insert_list (Hashtbl.find full p) (eval_rule cache wdb r)))
      rules;
    if sizes () = before then wdb else loop wdb
  in
  let wdb = loop wdb in
  (wdb, List.map (Hashtbl.find full) preds)

let run ?cache db (s : Cq.Stratify.t) =
  let cache = match cache with Some c -> c | None -> Cq.Eval.make_cache () in
  let wdb = ref (with_placeholders db (List.concat s.strata)) in
  List.fold_left
    (fun result rules ->
      let wdb', extents = eval_fix cache !wdb rules in
      wdb := wdb';
      List.fold_left R.Database.add_relation result extents)
    db s.strata
