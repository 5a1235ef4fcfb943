module R = Dc_relational
module Cq = Dc_cq

let log_src =
  Logs.Src.create "datacite.incremental" ~doc:"Incremental citation maintenance"

module Log = (val Logs.src_log log_src)

type t = {
  engine : Engine.t;
  query : Cq.Query.t;
  selected : Cq.Query.t list;
  templates : Compute.template list;
      (** one per [selected] rewriting, holding its expansion *)
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
  {
    engine = eng;
    query = q;
    selected;
    templates = List.map (Engine.template eng) selected;
    cache;
    affected_last = 0;
  }

(* Specialize [q] by pinning [terms] — one body atom's arguments, or
   the head — to the values of [tuple]: each variable is substituted by
   its value.  [None] when a constant, or a repeated variable, disagrees
   with the tuple. *)
let pin q terms tuple =
  let rec build subst i = function
    | [] -> Some subst
    | Cq.Term.Const c :: rest ->
        if R.Value.equal c (R.Tuple.get tuple i) then build subst (i + 1) rest
        else None
    | Cq.Term.Var v :: rest ->
        Option.bind
          (Cq.Subst.extend subst v (Cq.Term.Const (R.Tuple.get tuple i)))
          (fun subst -> build subst (i + 1) rest)
  in
  if List.length terms <> R.Tuple.arity tuple then None
  else
    Option.map (fun s -> Cq.Query.apply_subst s q) (build Cq.Subst.empty 0 terms)

(* Delta rule: the head tuples derivable through [tuple] sitting in the
   [pred] position of [q]'s body, evaluated against [db].  One pass per
   occurrence of [pred]. *)
let derived_through ?cache db q pred tuple =
  List.concat_map
    (fun atom ->
      if String.equal (Cq.Atom.pred atom) pred then
        match pin q (Cq.Atom.args atom) tuple with
        | None -> []
        | Some q' -> List.map fst (Cq.Eval.run_projected ?cache db q' [])
      else [])
    (Cq.Query.body q)

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
  let new_engine = Engine.refresh reg.engine new_base in
  let cviews = Engine.citation_views reg.engine in
  let changed_base = R.Delta.relations_touched delta in
  (* 1. Affected output tuples: those with a binding of a registered
     rewriting's expansion through an inserted base tuple (over the new
     base) or a deleted one (over the old).  The expansion's head is the
     rewriting's, so these are the rewriting's answers whose bindings
     changed.  Registrations never read Datalog-derived predicates
     ({!Versioned_engine.register} refuses them), so the base is all an
     expansion reads. *)
  let affected =
    List.concat_map
      (fun t ->
        match Compute.expansion t with
        | None -> []
        | Some exp ->
            List.concat_map
              (fun rel ->
                List.concat_map
                  (derived_through ~cache:eval_cache new_base exp rel)
                  (R.Delta.inserted delta rel)
                @ List.concat_map
                    (derived_through ~cache:eval_cache old_base exp rel)
                    (R.Delta.deleted delta rel))
              changed_base)
      reg.templates
    |> List.sort_uniq R.Tuple.compare
  in
  (* 2. Recompute the expressions of affected tuples only, from the
     projected bindings of each rewriting pinned to the tuple. *)
  let resolve = Engine.leaf_resolver new_engine in
  let cache =
    List.fold_left
      (fun cache tuple ->
        let contribs =
          List.filter_map
            (fun rw ->
              Option.bind (pin rw (Cq.Query.head rw) tuple) (fun rw' ->
                  let t = Engine.template new_engine rw' in
                  match Compute.run ~cache:eval_cache new_base t with
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
  (* 3. Citation-query dirtiness: snippets live in the base database, so
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
      m "apply_delta: %d changes, %d output tuple(s) recomputed"
        (R.Delta.size delta) (List.length affected));
  {
    reg with
    engine = new_engine;
    cache;
    affected_last = List.length affected;
  }
