module R = Dc_relational
module Cq = Dc_cq

let log_src =
  Logs.Src.create "datacite.incremental" ~doc:"Incremental citation maintenance"

module Log = (val Logs.src_log log_src)

type t = {
  engine : Engine.t;
  query : Cq.Query.t;
  selected : Cq.Query.t list;
  cache : Engine.tuple_citation R.Tuple.Map.t;
  affected_last : int;
}

let engine reg = reg.engine
let query reg = reg.query
let selected reg = reg.selected
let tuples reg = List.map snd (R.Tuple.Map.bindings reg.cache)
let affected_last reg = reg.affected_last

let aggregate reg tuples =
  Engine.aggregate ~resolve:(Engine.leaf_resolver reg.engine) reg.engine tuples

let result_expr reg = fst (aggregate reg (tuples reg))
let result_citations reg = snd (aggregate reg (tuples reg))

let to_result reg : Engine.result =
  let tuples = tuples reg in
  let result_expr, result_citations = aggregate reg tuples in
  {
    Engine.query = reg.query;
    rewritings = reg.selected;
    selected = reg.selected;
    tuples;
    result_expr;
    result_citations;
    complete = true;
    stats =
      {
        Dc_rewriting.Rewrite.candidates = 0;
        verified = 0;
        kept = List.length reg.selected;
        truncated = false;
      };
  }

let register eng q =
  let result = Engine.cite eng q in
  let cache =
    List.fold_left
      (fun m (tc : Engine.tuple_citation) -> R.Tuple.Map.add tc.tuple tc m)
      R.Tuple.Map.empty result.tuples
  in
  (* For an uncovered query the engine evaluated the query itself; track
     it so deltas on its base relations still propagate. *)
  let selected =
    if result.selected = [] then [ Cq.Query.strip_params q ]
    else result.selected
  in
  { engine = eng; query = q; selected; cache; affected_last = 0 }

(* Specialize a query by pinning one body-atom occurrence to a concrete
   tuple: substitute the atom's variables with the tuple's values.
   [None] when a constant in the atom disagrees with the tuple. *)
let pin_occurrence q atom_index tuple =
  let body = Cq.Query.body q in
  let atom = List.nth body atom_index in
  let rec build subst args i =
    match args with
    | [] -> Some subst
    | Cq.Term.Const c :: rest ->
        if R.Value.equal c (R.Tuple.get tuple i) then build subst rest (i + 1)
        else None
    | Cq.Term.Var v :: rest -> (
        let value = R.Tuple.get tuple i in
        match Cq.Subst.extend subst v (Cq.Term.Const value) with
        | Some subst -> build subst rest (i + 1)
        | None -> None)
  in
  if List.length (Cq.Atom.args atom) <> R.Tuple.arity tuple then None
  else
    Option.map
      (fun s -> Cq.Query.apply_subst s q)
      (build Cq.Subst.empty (Cq.Atom.args atom) 0)

(* Delta rule: the head tuples derivable through [tuple] sitting in the
   [pred] position of [q]'s body, evaluated against [db].  One pass per
   occurrence of [pred]. *)
let derived_through ?cache db q pred tuple =
  List.concat
    (List.mapi
       (fun i atom ->
         if String.equal (Cq.Atom.pred atom) pred then
           match pin_occurrence q i tuple with
           | None -> []
           | Some q' -> List.map fst (Cq.Eval.run ?cache db q')
         else [])
       (Cq.Query.body q))

(* Pin the head of [q] to a concrete output tuple, yielding the
   specialized query whose answers are exactly the bindings behind that
   tuple.  [None] when a head constant disagrees with the tuple. *)
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

let apply_delta ?new_base reg delta =
  (* Reuse the engine's index cache rather than building a throwaway
     one per delta: entries are validated against the current relation
     value inside [Eval.index_for], so indexes over unchanged relations
     survive across deltas and stale ones rebuild transparently. *)
  let eval_cache = Engine.eval_cache reg.engine in
  let old_base = Engine.database reg.engine in
  (* [new_base], when given, lets a caller that already applied the
     delta (Version_store.apply_head is THE delta-application path)
     share the exact database value instead of re-deriving it. *)
  let new_base =
    match new_base with
    | Some db -> db
    | None -> R.Delta.apply old_base delta
  in
  let old_view_db = Engine.view_database reg.engine in
  let cviews = Engine.citation_views reg.engine in
  let changed_base = R.Delta.relations_touched delta in
  let derived = Engine.derived_predicates reg.engine in
  (* 1. View-extent deltas by delta rules + rederivation check.  Views
     over Datalog-derived predicates (a program's exports) are left
     alone: their inputs are not in [new_base], and the registration
     guard ({!Versioned_engine.register}) ensures no registered
     rewriting reads them. *)
  let view_changes =
    List.filter_map
      (fun cv ->
        let def = Citation_view.definition cv in
        let preds = Cq.Query.predicates def in
        let touches =
          List.exists (fun p -> List.mem p changed_base) preds
          && not (List.exists (fun p -> List.mem p derived) preds)
        in
        if not touches then None
        else
          let name = Citation_view.name cv in
          let old_extent = R.Database.relation_exn old_view_db name in
          let inserts =
            List.concat_map
              (fun rel ->
                List.concat_map
                  (fun tuple -> derived_through ~cache:eval_cache new_base def rel tuple)
                  (R.Delta.inserted delta rel))
              changed_base
            |> List.filter (fun t -> not (R.Relation.mem old_extent t))
            |> List.sort_uniq R.Tuple.compare
          in
          let delete_candidates =
            List.concat_map
              (fun rel ->
                List.concat_map
                  (fun tuple -> derived_through ~cache:eval_cache old_base def rel tuple)
                  (R.Delta.deleted delta rel))
              changed_base
            |> List.sort_uniq R.Tuple.compare
          in
          let deletes =
            List.filter
              (fun t ->
                match pin_head def t with
                | None -> true
                | Some q' -> not (Cq.Eval.holds ~cache:eval_cache new_base q'))
              delete_candidates
          in
          if inserts = [] && deletes = [] then None
          else Some (name, inserts, deletes))
      (Citation_view.Set.to_list cviews)
  in
  (* 2. Apply view deltas to the materialized view database. *)
  let new_view_db =
    List.fold_left
      (fun db (name, inserts, deletes) ->
        let rel = R.Database.relation_exn db name in
        let rel = List.fold_left R.Relation.delete rel deletes in
        let rel = R.Relation.insert_list rel inserts in
        R.Database.add_relation db rel)
      old_view_db view_changes
  in
  let new_engine =
    Engine.with_databases reg.engine ~base:new_base ~view_db:new_view_db
  in
  let merge base view_db =
    List.fold_left R.Database.add_relation base (R.Database.relations view_db)
  in
  let merged_old = merge old_base old_view_db in
  let merged_new = merge new_base new_view_db in
  (* 3. Affected output tuples of the registered rewritings: through
     changed view tuples, and — for partial rewritings — through changed
     base tuples referenced directly. *)
  let affected =
    List.concat_map
      (fun rw ->
        let via_views =
          List.concat_map
            (fun (vname, inserts, deletes) ->
              List.concat_map
                (fun t -> derived_through ~cache:eval_cache merged_new rw vname t)
                inserts
              @ List.concat_map
                  (fun t -> derived_through ~cache:eval_cache merged_old rw vname t)
                  deletes)
            view_changes
        in
        let via_base =
          List.concat_map
            (fun rel ->
              if List.mem rel (Cq.Query.predicates rw) then
                List.concat_map
                  (fun t -> derived_through ~cache:eval_cache merged_new rw rel t)
                  (R.Delta.inserted delta rel)
                @ List.concat_map
                    (fun t -> derived_through ~cache:eval_cache merged_old rw rel t)
                    (R.Delta.deleted delta rel)
              else [])
            changed_base
        in
        via_views @ via_base)
      reg.selected
    |> List.sort_uniq R.Tuple.compare
  in
  (* 4. Recompute the expressions of affected tuples only, from the
     projected bindings of each rewriting pinned to the tuple. *)
  let resolve = Engine.leaf_resolver new_engine in
  let cache =
    List.fold_left
      (fun cache tuple ->
        let contribs =
          List.filter_map
            (fun rw ->
              Option.bind (pin_head rw tuple) (fun rw' ->
                  let t = Compute.template cviews rw' in
                  match
                    Cq.Eval.run_projected ~cache:eval_cache merged_new rw'
                      (Compute.vars t)
                  with
                  | [ (_, projections) ] -> Some (t, projections)
                  | _ -> None))
            reg.selected
        in
        if contribs = [] then R.Tuple.Map.remove tuple cache
        else
          R.Tuple.Map.add tuple
            (Engine.tuple_citation ~resolve new_engine tuple
               (Compute.projected_expr contribs))
            cache)
      reg.cache affected
  in
  (* 5. Citation-query dirtiness: snippets live in the base database, so
     a delta touching a citation query's relations stales the concrete
     citations (not the formal expressions) of every tuple whose
     expression mentions that view. *)
  let dirty_views =
    List.filter_map
      (fun cv ->
        let dirty =
          List.exists
            (fun cq ->
              List.exists
                (fun p -> List.mem p changed_base)
                (Cq.Query.predicates cq))
            (Citation_view.citation_queries cv)
        in
        if dirty then Some (Citation_view.name cv) else None)
      (Citation_view.Set.to_list cviews)
  in
  let cache =
    if dirty_views = [] then cache
    else
      R.Tuple.Map.map
        (fun (tc : Engine.tuple_citation) ->
          let mentions =
            List.exists
              (fun (l : Cite_expr.leaf) -> List.mem l.view dirty_views)
              (Cite_expr.leaves tc.expr)
          in
          if mentions then Engine.tuple_citation ~resolve new_engine tc.tuple tc.expr
          else tc)
        cache
  in
  Log.debug (fun m ->
      m "apply_delta: %d changes, %d view(s) changed, %d output tuple(s) \
         recomputed"
        (R.Delta.size delta) (List.length view_changes) (List.length affected));
  {
    reg with
    engine = new_engine;
    cache;
    affected_last = List.length affected;
  }
