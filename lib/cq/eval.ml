module R = Dc_relational
module Smap = Map.Make (String)
module Sset = Set.Make (String)

exception Unknown_relation of string

module Metrics = Dc_parallel.Metrics

module Binding = struct
  type t = R.Value.t Smap.t

  let empty = Smap.empty
  let find b v = Smap.find_opt v b

  let find_exn b v =
    match Smap.find_opt v b with Some x -> x | None -> raise Not_found

  let bind b v x = Smap.add v x b
  let to_list b = Smap.bindings b
  let of_list l = List.fold_left (fun b (v, x) -> Smap.add v x b) empty l
  let values b vars = List.map (find_exn b) vars
  let restrict b vars =
    let keep = Sset.of_list vars in
    Smap.filter (fun v _ -> Sset.mem v keep) b
  let compare = Smap.compare R.Value.compare
  let equal a b = compare a b = 0
end

(* The reusable evaluation cache couples two things keyed off the same
   database evolution story:
   - [indexes]: hash indexes keyed by (predicate, bound positions), each
     remembering the relation value it was built from;
   - [plans]: compiled plans keyed by the query's syntax, constants
     compared as typed values ({!Query.Tbl}), each remembering the
     relation values it captured ({!Plan.valid}).
   Both validate entries by physical identity of the current relation
   value, so one cache serves many evaluations over evolving persistent
   databases; stale entries rebuild transparently.  The statistics
   behind the compile-time join order live on the relation values. *)
type cache = {
  indexes : (string * int list, R.Relation.t * R.Index.t) Hashtbl.t;
  plans : Plan.t Query.Tbl.t;
}

let make_cache () = { indexes = Hashtbl.create 32; plans = Query.Tbl.create 32 }

let relation_of db pred =
  match R.Database.relation db pred with
  | Some r -> r
  | None -> raise (Unknown_relation pred)

let index_for cache db pred positions =
  let rel = relation_of db pred in
  match Hashtbl.find_opt cache.indexes (pred, positions) with
  | Some (rel0, idx) when rel0 == rel ->
      Metrics.(record Key.eval_cache_hits);
      idx
  | _ ->
      Metrics.(record Key.eval_cache_misses);
      let idx = R.Index.build rel positions in
      Hashtbl.replace cache.indexes (pred, positions) (rel, idx);
      idx

(* Plan-cache capacity bound.  Resolving a citation leaf pins its
   parameter values into the citation queries, so distinct keys are
   unbounded in general; resetting on overflow keeps the steady-state
   workload (a fixed set of citation views) fully cached while bounding
   memory. *)
let max_plans = 1024

let plan_for cache db q =
  match Query.Tbl.find_opt cache.plans q with
  | Some p when Plan.valid p db ->
      Metrics.(record Key.eval_plan_hits);
      p
  | stale ->
      Metrics.(record Key.plan_compiles);
      let p =
        Metrics.record_time "plan_compile" (fun () ->
            Plan.compile
              ~relation:(fun pred -> relation_of db pred)
              ~index:(fun pred positions -> index_for cache db pred positions)
              db q)
      in
      if stale = None && Query.Tbl.length cache.plans >= max_plans then
        Query.Tbl.reset cache.plans;
      Query.Tbl.replace cache.plans q p;
      p

(* Every emission of one plan binds the same variable set, so the
   result maps all share one shape: build a name -> slot template once
   per evaluation, then materialize each binding with [Smap.map] — a
   straight O(slots) tree copy, no comparisons, no rebalancing. *)
let slot_template slots =
  let t = ref Smap.empty in
  Array.iteri (fun i v -> t := Smap.add v i !t) slots;
  !t

let binding_of_regs template (regs : R.Value.t array) : Binding.t =
  Smap.map (fun s -> regs.(s)) template

let resolve_cache = function Some c -> c | None -> make_cache ()

let bindings ?cache db q =
  let cache = resolve_cache cache in
  let plan = plan_for cache db q in
  let template = slot_template (Plan.slots plan) in
  let acc = ref [] in
  Plan.execute plan (fun regs -> acc := binding_of_regs template regs :: !acc);
  !acc

let tuple_of_binding q binding =
  R.Tuple.make
    (List.map
       (function
         | Term.Const c -> c
         | Term.Var v -> Binding.find_exn binding v)
       (Query.head q))

let rec compare_projection regs proj prev i =
  if i = Array.length proj then 0
  else
    match R.Value.compare regs.(proj.(i)) prev.(i) with
    | 0 -> compare_projection regs proj prev (i + 1)
    | c -> c

(* Most projections are one variable, and an array literal is
   allocated inline, unlike [Array.make]. *)
let project regs proj =
  match proj with
  | [||] -> [||]
  | [| s |] -> [| regs.(s) |]
  | _ ->
      let p = Array.make (Array.length proj) regs.(proj.(0)) in
      for i = 1 to Array.length proj - 1 do
        p.(i) <- regs.(proj.(i))
      done;
      p

let compare_emission (t1, p1) (t2, p2) =
  match R.Tuple.compare t1 t2 with 0 -> R.Tuple.compare p1 p2 | c -> c

(* Pushes one sorted block onto [answers], greatest first and each
   answer's projections greatest first, as [grouped] keeps them: [t] is
   the block's current answer, [ps] its projections so far, and the
   list holds the block's remaining pairs. *)
let rec push_runs answers t ps = function
  | (t', p) :: rest when R.Tuple.equal t t' ->
      push_runs answers t (p :: ps) rest
  | (t', p) :: rest -> push_runs ((t, ps) :: answers) t' [ p ] rest
  | [] -> (t, ps) :: answers

(* The answers of [plan], each with the distinct projections of its
   valuations on the slots [proj], tuples and projections ascending.
   The plan runs with its outer scan in head order, so the emissions
   arrive in non-decreasing order of their first [k] head columns
   ({!Plan.head_prefix}): each block of equal prefix arrives whole.
   Each emission is compared once with the one before it, head tuple
   first, then projection:
   - a greater prefix ends the block and starts the next;
   - otherwise greater starts a new answer, an equal head tuple with a
     greater projection joins the last answer, and an equal pair is a
     duplicate, dropped;
   - smaller marks the block as out of order: its answers so far go
     back to pairs, which gather the rest of the block and are sorted
     once when it ends ({!Metrics.Key.eval_block_sorts}).
   Every unmarked block is grouped as it arrives.  A head tuple equal
   to the previous one is that same array, so an emission costs one
   comparison and at most one head tuple and one projection.
   [answers] holds the answers greatest first, each one's projections
   greatest first; the previous emission is its head, or the head of
   [pairs] in a marked block.  One pass at the end reverses both. *)
let grouped plan proj =
  let k = Plan.head_prefix plan in
  let answers = ref [] and block_base = ref [] and pairs = ref [] in
  let sorts = ref 0 in
  let end_block () =
    (match !pairs with
    | [] -> ()
    | unsorted -> (
        incr sorts;
        pairs := [];
        match List.sort_uniq compare_emission unsorted with
        | (t, p) :: rest -> answers := push_runs !answers t [ p ] rest
        | [] -> ()));
    block_base := !answers
  in
  let mark t p =
    let rec back acc answers =
      if answers == !block_base then acc
      else
        match answers with
        | (t, ps) :: rest ->
            back (List.fold_left (fun acc p -> (t, p) :: acc) acc ps) rest
        | [] -> acc
    in
    pairs := (t, p) :: back [] !answers;
    answers := !block_base
  in
  let start regs =
    answers := (Plan.head_tuple plan regs, [ project regs proj ]) :: !answers
  in
  Plan.execute ~head_order:true plan (fun regs ->
      match (!pairs, !answers) with
      | (t, _) :: _, _ ->
          let d = Plan.compare_head plan regs t in
          if d > 0 && d <= k then begin
            end_block ();
            start regs
          end
          else
            let t = if d = 0 then t else Plan.head_tuple plan regs in
            pairs := (t, project regs proj) :: !pairs
      | [], (t, (p :: _ as ps)) :: rest ->
          let d = Plan.compare_head plan regs t in
          if d > 0 then begin
            if d <= k then end_block ();
            start regs
          end
          else if d < 0 then
            mark (Plan.head_tuple plan regs) (project regs proj)
          else
            let c = compare_projection regs proj p 0 in
            if c > 0 then answers := (t, project regs proj :: ps) :: rest
            else if c < 0 then mark t (project regs proj)
      | [], _ -> start regs);
  end_block ();
  if !sorts > 0 then Metrics.(record ~by:!sorts Key.eval_block_sorts);
  List.fold_left
    (fun acc ((t, ps) as answer) ->
      match ps with [ _ ] -> answer :: acc | ps -> (t, List.rev ps) :: acc)
    [] !answers

let slot_index plan q v =
  let slots = Plan.slots plan in
  let rec find i =
    if i = Array.length slots then
      invalid_arg
        (Printf.sprintf "Eval.run_projected: %s is not a body variable of %s" v
           (Query.name q))
    else if String.equal slots.(i) v then i
    else find (i + 1)
  in
  find 0

(* A binding's map compares its values in variable-name order, so
   projecting every slot in that order makes {!Binding.compare} the
   projections' {!R.Tuple.compare}: [run] is [run_projected] on all the
   variables, sorted, with each projection read back as a binding. *)
let run ?cache db q =
  let plan = plan_for (resolve_cache cache) db q in
  let names = List.sort String.compare (Array.to_list (Plan.slots plan)) in
  let template = slot_template (Array.of_list names) in
  let proj = Array.of_list (List.map (slot_index plan q) names) in
  List.map
    (fun (t, ps) -> (t, List.map (binding_of_regs template) ps))
    (grouped plan proj)

(* Citation needs, per head tuple, only the values of the variables
   that feed view parameters, and only their distinct combinations, so
   the payload is the projection and duplicates drop in the grouping. *)
let run_projected ?cache db q vars =
  let plan = plan_for (resolve_cache cache) db q in
  grouped plan (Array.of_list (List.map (slot_index plan q) vars))

let head_schema name terms =
  let taken = Hashtbl.create 8 in
  let rec free col i =
    if Hashtbl.mem taken col then free (Printf.sprintf "%s_%d" col i) i
    else col
  in
  R.Schema.make name
    (List.mapi
       (fun i t ->
         let col =
           free
             (match t with
             | Term.Var v -> v
             | Term.Const _ -> Printf.sprintf "c%d" i)
             i
         in
         Hashtbl.add taken col ();
         R.Schema.attr col)
       terms)

let result_schema q = head_schema (Query.name q) (Query.head q)

let result ?cache db q =
  let cache = resolve_cache cache in
  let plan = plan_for cache db q in
  let rows = ref [] in
  Plan.execute plan (fun regs -> rows := Plan.head_tuple plan regs :: !rows);
  R.Relation.of_list (result_schema q) (List.rev !rows)

exception Found

let holds ?cache db q =
  let cache = resolve_cache cache in
  let plan = plan_for cache db q in
  match Plan.execute plan (fun _ -> raise_notrace Found) with
  | () -> false
  | exception Found -> true
