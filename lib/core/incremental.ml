module R = Dc_relational
module Cq = Dc_cq

let log_src =
  Logs.Src.create "datacite.incremental" ~doc:"Incremental citation maintenance"

module Log = (val Logs.src_log log_src)

type t = {
  engine : Engine.t;
  query : Cq.Query.t;
  selected : Cq.Query.t list;
  heads : (string * Compute.template) list;
      (** each selected rewriting's rule head, with its template *)
  program : Cq.Stratify.t;
  derived : R.Database.t;  (** [program]'s derivation: the rows *)
  eval_cache : Cq.Eval.cache;
  cache : Engine.tuple_citation R.Tuple.Map.t;
  affected_last : int;
}

let engine reg = reg.engine
let query reg = reg.query
let tuples reg = List.map snd (R.Tuple.Map.bindings reg.cache)
let affected_last reg = reg.affected_last

(* The cache's expressions reach the dedup in tuple order, as a cite
   hands them out: of two equal [Agg] children the sort keeps one by
   position, so the order decides which one prints. *)
let summary reg =
  Engine.summarize ~resolve:(Engine.leaf_resolver reg.engine) reg.engine
    ~complete:true ~rewritings:(List.length reg.selected) (fun f ->
      R.Tuple.Map.iter (fun _ (tc : Engine.tuple_citation) -> f tc.expr) reg.cache)

let result_expr reg = (summary reg).summary_expr
let result_citations reg = (summary reg).summary_citations

let to_result reg : Engine.result =
  let tuples = tuples reg in
  let result_expr, result_citations =
    Engine.aggregate ~resolve:(Engine.leaf_resolver reg.engine) reg.engine
      tuples
  in
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

let citation_reads cv =
  List.concat_map Cq.Query.predicates (Citation_view.citation_queries cv)

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
  (* '#' is no identifier character: no relation or predicate takes the
     name of a rule head *)
  let heads, rules =
    List.split
      (List.filter_map
         (fun (p, t) -> Option.map (fun r -> ((p, t), r)) (Compute.rule p t))
         (List.mapi
            (fun i rw ->
              (Printf.sprintf "registration#%d" i, Engine.template eng rw))
            selected))
  in
  let reads =
    List.concat_map (fun r -> List.map fst (Cq.Rule.body_preds r)) rules
    @ List.concat_map citation_reads
        (Citation_view.Set.to_list (Engine.citation_views eng))
  in
  (* The program's extents carry over; the rows derive from empty. *)
  let program, prior =
    match Engine.program eng with
    | Some p when List.exists (Cq.Program.is_idb p) reads ->
        (Cq.Program.rules p @ rules, Engine.derived_database eng)
    | _ -> (rules, R.Database.empty)
  in
  let program = Cq.Stratify.run_exn program
  and eval_cache = Cq.Eval.make_cache () in
  {
    engine = eng;
    query = q;
    selected;
    heads;
    program;
    derived =
      Cq.Seminaive.continue ~cache:eval_cache ~prior ~changes:R.Delta.empty
        (Engine.database eng) program;
    eval_cache;
    cache;
    affected_last = 0;
  }

let apply_delta ?new_base reg delta =
  let old_base = Engine.database reg.engine in
  (* [new_base], when given, lets a caller that already applied the
     delta (Version_store.apply_head is THE delta-application path)
     share the exact database value instead of re-deriving it. *)
  let new_base =
    match new_base with
    | Some db -> db
    | None -> R.Delta.apply old_base delta
  in
  let changes = R.Delta.net ~before:old_base ~after:new_base delta in
  let derived, derived_changes =
    Cq.Seminaive.continue_delta ~cache:reg.eval_cache ~prior:reg.derived
      ~changes new_base reg.program
  in
  let new_engine = Engine.refresh reg.engine new_base in
  let cite =
    Engine.tuple_citation ~resolve:(Engine.leaf_resolver new_engine) new_engine
  in
  let width = Cq.Query.arity reg.query in
  (* 1. Citation-query dirtiness: a change to a relation, base or
     derived, that a citation query reads stales the concrete citations
     (not the formal expressions) of every tuple whose expression
     mentions that view. *)
  let changed =
    R.Delta.relations_touched changes
    @ R.Delta.relations_touched derived_changes
  in
  let dirty =
    List.filter_map
      (fun cv ->
        if List.exists (fun p -> List.mem p changed) (citation_reads cv) then
          Some (Citation_view.name cv)
        else None)
      (Citation_view.Set.to_list (Engine.citation_views reg.engine))
  in
  let stale (tc : Engine.tuple_citation) =
    List.exists
      (fun (l : Cite_expr.leaf) -> List.mem l.view dirty)
      (Cite_expr.leaves tc.expr)
  in
  let cache =
    if dirty = [] then reg.cache
    else
      R.Tuple.Map.map
        (fun (tc : Engine.tuple_citation) ->
          if stale tc then cite tc.tuple tc.expr else tc)
        reg.cache
  in
  (* 2. The affected answers, those that gained or lost a row, get their
     expressions recomputed from their rows, where the projections
     follow the answer. *)
  let affected =
    List.concat_map
      (fun (p, _) ->
        R.Delta.inserted derived_changes p @ R.Delta.deleted derived_changes p)
      reg.heads
    |> List.map (fun row -> R.Tuple.project row (List.init width Fun.id))
    |> List.sort_uniq R.Tuple.compare
  in
  let rows tuple (p, t) =
    let n = List.length (Compute.vars t) in
    let rows = ref [] in
    R.Relation.probe_prefix
      (R.Database.relation_exn derived p)
      (Array.of_list (R.Tuple.to_list tuple))
      (fun row -> rows := row :: !rows);
    match !rows with
    | [] -> None
    | rows ->
        Some
          ( t,
            List.rev_map
              (fun row -> Array.init n (fun i -> R.Tuple.get row (width + i)))
              rows )
  in
  let cache =
    List.fold_left
      (fun cache tuple ->
        match List.filter_map (rows tuple) reg.heads with
        | [] -> R.Tuple.Map.remove tuple cache
        | contribs ->
            R.Tuple.Map.add tuple
              (cite tuple (Compute.projected_expr contribs))
              cache)
      cache affected
  in
  Log.debug (fun m ->
      m "apply_delta: %d changes, %d output tuple(s) recomputed"
        (R.Delta.size delta) (List.length affected));
  {
    reg with
    engine = new_engine;
    derived;
    cache;
    affected_last = List.length affected;
  }
