module R = Dc_relational
module Cq = Dc_cq
module Binding = Cq.Eval.Binding
module Sset = Set.Make (String)

type cache = (string * int list, R.Relation.t * R.Index.t) Hashtbl.t

let make_cache () : cache = Hashtbl.create 32

let is_truth atom = Cq.Atom.pred atom = "True" && Cq.Atom.args atom = []

let relation_of db pred =
  match R.Database.relation db pred with
  | Some r -> r
  | None -> raise (Cq.Eval.Unknown_relation pred)

let index_for cache db pred positions =
  let rel = relation_of db pred in
  match Hashtbl.find_opt cache (pred, positions) with
  | Some (rel0, idx) when rel0 == rel -> idx
  | _ ->
      let idx = R.Index.build rel positions in
      Hashtbl.replace cache (pred, positions) (rel, idx);
      idx

(* Partition an atom's argument positions into bound (constant or
   already-bound variable) and free, under the current binding. *)
let split_positions binding atom =
  let rec go i bound free = function
    | [] -> (List.rev bound, List.rev free)
    | Cq.Term.Const c :: rest -> go (i + 1) ((i, c) :: bound) free rest
    | Cq.Term.Var v :: rest -> (
        match Binding.find binding v with
        | Some c -> go (i + 1) ((i, c) :: bound) free rest
        | None -> go (i + 1) bound ((i, v) :: free) rest)
  in
  go 0 [] [] (Cq.Atom.args atom)

(* Extend [binding] with the free variables of [atom] matched against
   [tuple]; fails when a repeated free variable meets two different
   values. *)
let extend_with_tuple binding atom tuple =
  let rec go binding i = function
    | [] -> Some binding
    | Cq.Term.Const _ :: rest -> go binding (i + 1) rest
    | Cq.Term.Var v :: rest -> (
        let x = R.Tuple.get tuple i in
        match Binding.find binding v with
        | Some existing ->
            if R.Value.equal existing x then go binding (i + 1) rest else None
        | None -> go (Binding.bind binding v x) (i + 1) rest)
  in
  go binding 0 (Cq.Atom.args atom)

let bindings ?cache db q =
  let cache = match cache with Some c -> c | None -> make_cache () in
  let rec join binding acc = function
    | [] -> binding :: acc
    | atom :: rest when is_truth atom -> join binding acc rest
    | atom :: rest ->
        let bound, _free = split_positions binding atom in
        let candidates =
          if bound = [] then
            R.Relation.tuples (relation_of db (Cq.Atom.pred atom))
          else
            let positions = List.map fst bound in
            let key = Array.of_list (List.map snd bound) in
            R.Index.lookup_key (index_for cache db (Cq.Atom.pred atom) positions) key
        in
        List.fold_left
          (fun acc tuple ->
            match extend_with_tuple binding atom tuple with
            | Some binding -> join binding acc rest
            | None -> acc)
          acc candidates
  in
  (* Reorder body atoms greedily per evaluation: start from the atom
     with most constants, then prefer atoms sharing variables with
     what is already bound. *)
  let score bound_vars atom =
    let args = Cq.Atom.args atom in
    let bound =
      List.length
        (List.filter
           (function
             | Cq.Term.Const _ -> true
             | Cq.Term.Var v -> Sset.mem v bound_vars)
           args)
    in
    (bound * 100) - List.length args
  in
  let rec order bound_vars remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
        let best =
          List.fold_left
            (fun best a ->
              match best with
              | None -> Some a
              | Some b ->
                  if score bound_vars a > score bound_vars b then Some a
                  else best)
            None remaining
        in
        let best = Option.get best in
        let remaining = List.filter (fun a -> not (a == best)) remaining in
        order
          (List.fold_left
             (fun s v -> Sset.add v s)
             bound_vars (Cq.Atom.var_list best))
          remaining (best :: acc)
  in
  let ordered = order Sset.empty (Cq.Query.body q) [] in
  join Binding.empty [] ordered

let run ?cache db q =
  let groups =
    List.fold_left
      (fun m b ->
        let t = Cq.Eval.tuple_of_binding q b in
        let existing = Option.value ~default:[] (R.Tuple.Map.find_opt t m) in
        R.Tuple.Map.add t (b :: existing) m)
      R.Tuple.Map.empty (bindings ?cache db q)
  in
  R.Tuple.Map.bindings groups

let result ?cache db q =
  List.fold_left
    (fun rel (t, _) -> R.Relation.insert rel t)
    (R.Relation.empty (Cq.Eval.head_schema (Cq.Query.name q) (Cq.Query.head q)))
    (run ?cache db q)

let holds ?cache db q = bindings ?cache db q <> []
