module Cq = Dc_cq
module R = Dc_relational
module Rw = Dc_rewriting

let log_src = Logs.Src.create "datacite.engine" ~doc:"Citation engine"

module Log = (val Logs.src_log log_src)

type selection = [ `All | `Min_estimated_size | `Min_exact_size ]

(* A memoized rewriting search result.  [canonical] is the minimized
   (core) form of the stripped query the plan was computed for: two
   queries share a plan iff their cores are equivalent, which holds iff
   the queries are.  The maximally-contained fallback is filled in
   lazily on first use. *)
type plan = {
  canonical : Cq.Query.t;
  plan_rewritings : Cq.Query.t list;
  plan_stats : Rw.Rewrite.stats;
  mutable plan_contained : (Cq.Query.t list * Rw.Rewrite.stats) option;
}

(* Two-level lookup: a cheap canonical-rendering key catches repeats of
   the same (or alpha-renamed) query with zero containment work; the
   sorted-predicate-multiset buckets catch any other equivalent form
   via Chandra-Merlin equivalence of the cores.  Plans depend only on
   the view set, never on the data, so the cache is shared by [refresh]
   and [with_databases] copies of the engine. *)
type plan_cache = {
  by_render : (string, plan) Hashtbl.t;
  by_preds : (string, plan list ref) Hashtbl.t;
}

type t = {
  base : R.Database.t;  (** EDB relations only *)
  derived : R.Database.t;
      (** IDB extents materialized from [program] by {!Dc_cq.Seminaive};
          empty for program-free engines *)
  full : R.Database.t;  (** [base] + [derived]: what citation queries see *)
  program : Cq.Program.t option;
  cviews : Citation_view.Set.t;
  views : Rw.View.Set.t;
  view_db : R.Database.t;
  policy : Policy.t;
  selection : selection;
  partial : bool;
  fallback_contained : bool;
  leaf_cache : (string, Citation.t) Hashtbl.t;
  eval_cache : Cq.Eval.cache;
  stats : R.Stats.t;
      (** column statistics behind the [`Min_estimated_size] choice *)
  plans : plan_cache;
  metrics : Metrics.t;
  (* Optional domain pool: when present, the rewriting search inside
     [plan_for] verifies candidates in parallel across its domains. *)
  pool : Dc_parallel.Domain_pool.t option;
  (* Guards every shared mutable cache (plan, leaf, eval, stats) so one engine
     can serve concurrent threads (the server's worker pool).  [refresh]
     and [with_databases] copies share the caches, hence also the lock;
     [replicate] shards get fresh caches and a fresh lock. *)
  lock : Mutex.t;
}

(* Every [locked] call site runs under [with_sink e.metrics], so a
   contended acquisition is charged to the engine's own registry as
   well as the default one.  [try_lock] first: the uncontended path
   costs one atomic attempt, the contended one is counted — that
   counter is exactly what E14 uses to attribute (lack of) scaling. *)
let locked e f =
  if not (Mutex.try_lock e.lock) then begin
    Metrics.record Metrics.Key.engine_lock_waits;
    Mutex.lock e.lock
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.lock) f

let materialize ?cache base cviews =
  List.fold_left
    (fun db cv ->
      let rel = Cq.Eval.result ?cache base (Citation_view.definition cv) in
      R.Database.add_relation db rel)
    R.Database.empty
    (Citation_view.Set.to_list cviews)

let merge_full base derived =
  List.fold_left R.Database.add_relation base (R.Database.relations derived)

(* Materialize a program's IDB predicates into their own database; the
   semi-naive run validates name collisions and stratification was
   checked at [Program.make] time. *)
let derive ?cache base (program : Cq.Program.t) =
  let out = Cq.Seminaive.run ?cache base program.strat in
  List.fold_left
    (fun d p -> R.Database.add_relation d (R.Database.relation_exn out p))
    R.Database.empty
    (Cq.Program.idb_preds program)

let make_engine ~policy ~selection ~partial ~fallback_contained ~pool ~metrics
    ~program ~eval_cache base derived cview_list =
  let full = merge_full base derived in
  List.iter
    (fun cv ->
      let n = Citation_view.name cv in
      if R.Database.mem_relation full n then
        invalid_arg
          (Printf.sprintf
             "Engine.create: view %s collides with a base relation" n);
      List.iter
        (fun q ->
          match Cq.Schema_check.check_query_res full q with
          | Ok () -> ()
          | Error e ->
              invalid_arg (Printf.sprintf "Engine.create: view %s: %s" n e))
        (Citation_view.definition cv :: Citation_view.citation_queries cv))
    cview_list;
  let cviews = Citation_view.Set.of_list cview_list in
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let view_db =
    Metrics.with_sink metrics (fun () ->
        Metrics.record_time "materialize" (fun () ->
            materialize ~cache:eval_cache full cviews))
  in
  {
    base;
    derived;
    full;
    program;
    cviews;
    views = Citation_view.Set.view_set cviews;
    view_db;
    policy;
    selection;
    partial;
    fallback_contained;
    leaf_cache = Hashtbl.create 64;
    eval_cache;
    stats = R.Stats.create ();
    (* the plan cache is keyed by the view set, which is fixed at
       creation: a fresh engine (possibly with different views) always
       starts cold *)
    plans = { by_render = Hashtbl.create 16; by_preds = Hashtbl.create 16 };
    metrics;
    pool;
    lock = Mutex.create ();
  }

let create ?(policy = Policy.default) ?(selection = `Min_estimated_size)
    ?(partial = false) ?(fallback_contained = false) ?pool ?metrics base
    cview_list =
  make_engine ~policy ~selection ~partial ~fallback_contained ~pool ~metrics
    ~program:None ~eval_cache:(Cq.Eval.make_cache ()) base R.Database.empty
    cview_list

let of_program ?(policy = Policy.default) ?(selection = `Min_estimated_size)
    ?(partial = false) ?(fallback_contained = false) ?pool ?metrics
    ?(views = []) base program =
  let eval_cache = Cq.Eval.make_cache () in
  let derived = derive ~cache:eval_cache base program in
  let cview_list =
    List.map
      (fun (e : Cq.Program.export) ->
        match Citation_view.make ~view:e.view ~citations:e.citations () with
        | Ok cv -> cv
        | Error err ->
            invalid_arg
              (Printf.sprintf "Engine.of_program: export %s: %s"
                 (Cq.Query.name e.view) err))
      (Cq.Program.unfold_exports program)
    @ views
  in
  make_engine ~policy ~selection ~partial ~fallback_contained ~pool ~metrics
    ~program:(Some program) ~eval_cache base derived cview_list

(* A shard replica: same immutable data (base, materialized views, view
   set, policy, pool) and the same metrics registry, but private caches
   and a private lock.  Replicas therefore never contend on the hot
   path — that is the whole point of sharding — at the price of each
   shard warming its own plan/leaf/eval caches. *)
let replicate e =
  {
    e with
    leaf_cache = Hashtbl.create 64;
    eval_cache = Cq.Eval.make_cache ();
    stats = R.Stats.create ();
    plans = { by_render = Hashtbl.create 16; by_preds = Hashtbl.create 16 };
    lock = Mutex.create ();
  }

let database e = e.base
let derived_database e = e.derived
let program e = e.program

let derived_predicates e =
  match e.program with None -> [] | Some p -> Cq.Program.idb_preds p

let recursive_predicates e =
  match e.program with None -> [] | Some p -> Cq.Program.recursive_preds p

let citation_views e = e.cviews
let policy e = e.policy
let selection e = e.selection
let view_database e = e.view_db
let eval_cache e = e.eval_cache
let metrics e = e.metrics

(* [refresh] and [with_databases] change only the data, never the view
   set or rule set, so the plan cache (rewritings depend on views alone)
   and the eval cache (entries self-invalidate on relation identity) are
   kept; only the leaf cache — concrete citations computed from the
   data — must be dropped.  [refresh] re-derives the program's IDB
   extents before rematerializing the views over them. *)
let refresh e base =
  let derived, view_db =
    Metrics.with_sink e.metrics (fun () ->
        locked e (fun () ->
            let derived =
              match e.program with
              | None -> R.Database.empty
              | Some p ->
                  Metrics.record_time "derive" (fun () ->
                      derive ~cache:e.eval_cache base p)
            in
            let full = merge_full base derived in
            let view_db =
              Metrics.record_time "materialize" (fun () ->
                  materialize ~cache:e.eval_cache full e.cviews)
            in
            (derived, view_db)))
  in
  {
    e with
    base;
    derived;
    full = merge_full base derived;
    view_db;
    leaf_cache = Hashtbl.create 64;
  }

(* The caller asserts [view_db] matches [base]; derived extents are kept
   as-is.  {!Versioned_engine}'s registration guard refuses queries that
   read derived predicates, so maintained engines never observe them. *)
let with_databases e ~base ~view_db =
  {
    e with
    base;
    full = merge_full base e.derived;
    view_db;
    leaf_cache = Hashtbl.create 64;
  }

type tuple_citation = {
  tuple : R.Tuple.t;
  expr : Cite_expr.t;
  citations : Citation.Set.t;
}

type result = {
  query : Cq.Query.t;
  rewritings : Cq.Query.t list;
  selected : Cq.Query.t list;
  tuples : tuple_citation list;
  result_expr : Cite_expr.t;
  result_citations : Citation.Set.t;
  complete : bool;
  stats : Rw.Rewrite.stats;
}

(* Params are sorted by name so two leaves naming the same valuation in
   different construction orders share one cache entry (and one
   resolution). *)
let leaf_key (l : Cite_expr.leaf) =
  Printf.sprintf "%s(%s)" l.view
    (String.concat ","
       (List.map
          (fun (n, v) -> n ^ "=" ^ R.Value.to_string v)
          (List.sort (fun (a, _) (b, _) -> String.compare a b) l.params)))

let resolve_leaf e (l : Cite_expr.leaf) =
  Metrics.with_sink e.metrics @@ fun () ->
  locked e @@ fun () ->
  let k = leaf_key l in
  match Hashtbl.find_opt e.leaf_cache k with
  | Some c ->
      Metrics.record Metrics.Key.leaf_cache_hits;
      c
  | None ->
      Metrics.record Metrics.Key.leaf_cache_misses;
      let cv = Citation_view.Set.find_exn e.cviews l.view in
      let c = Citation_view.cite ~cache:e.eval_cache cv e.full l.params in
      Hashtbl.add e.leaf_cache k c;
      c

let select e rewritings =
  match (e.selection, rewritings) with
  | `All, _ | _, ([] | [ _ ]) -> rewritings
  | `Min_estimated_size, rs ->
      locked e (fun () ->
          Option.to_list
            (Rw.Cost.choose_min_size ~stats:e.stats e.full e.views rs))
  | `Min_exact_size, rs ->
      Option.to_list (Rw.Cost.choose_min_size ~exact:true e.full e.views rs)

(* One resolver per cite (or per maintenance step): each distinct leaf
   takes the engine lock and the shared cache once, however many tuples
   cite it. *)
let leaf_resolver e =
  let memo = Hashtbl.create 16 in
  fun (l : Cite_expr.leaf) ->
    match Hashtbl.find_opt memo l with
    | Some c -> c
    | None ->
        let c = resolve_leaf e l in
        Hashtbl.add memo l c;
        c

let tuple_citation ~resolve e tuple expr =
  { tuple; expr; citations = Policy.eval_normal ~resolve e.policy expr }

let aggregate ~resolve e tuples =
  let result_expr =
    Cite_expr.normalize_node
      (Cite_expr.agg (List.map (fun t -> t.expr) tuples))
  in
  (result_expr, Policy.eval_normal ~resolve e.policy result_expr)

(* Linear merge of runs sorted by tuple: each step takes the least head
   tuple together with the run heads equal to it. *)
let merge_runs runs =
  let rec go acc runs =
    match List.filter (fun (_, l) -> l <> []) runs with
    | [] -> List.rev acc
    | runs ->
        let least =
          List.fold_left
            (fun m (_, l) ->
              let t = fst (List.hd l) in
              if R.Tuple.compare t m < 0 then t else m)
            (fst (List.hd (snd (List.hd runs))))
            runs
        in
        let contribs, runs =
          List.fold_right
            (fun (x, l) (cs, rs) ->
              match l with
              | (t, ps) :: rest when R.Tuple.equal t least ->
                  ((x, ps) :: cs, (x, rest) :: rs)
              | _ -> (cs, (x, l) :: rs))
            runs ([], [])
        in
        go ((least, contribs) :: acc) runs
  in
  go [] runs

(* Per-tuple citations from the per-rewriting runs of (template, tuples
   with their projections).  A data-independent rewriting hands every
   tuple its template's one expression, physically shared, so a run of
   tuples carrying it shares one policy evaluation. *)
let assemble ~resolve e runs =
  let merged =
    match runs with
    | [ (t, groups) ] -> List.map (fun (tuple, ps) -> (tuple, [ (t, ps) ])) groups
    | runs -> merge_runs runs
  in
  let last = ref None in
  List.map
    (fun (tuple, contribs) ->
      let expr = Compute.projected_expr contribs in
      match !last with
      | Some (x, citations) when x == expr -> { tuple; expr; citations }
      | _ ->
          let tc = tuple_citation ~resolve e tuple expr in
          last := Some (expr, tc.citations);
          tc)
    merged

(* Rewritings are evaluated over the materialized views merged with the
   base and derived relations: a partial rewriting's uncovered subgoals
   reference the base schema (or a recursive predicate's materialized
   extent) directly. *)
let eval_db e =
  List.fold_left R.Database.add_relation e.full
    (R.Database.relations e.view_db)

let merged_database = eval_db

(* A cheap, containment-free canonical rendering used as the plan
   cache's fast path: group body atoms by predicate (stable, so the
   reorder is independent of variable names only across alpha-renaming,
   not across arbitrary body permutations), then rename every variable
   to x<i> in order of first occurrence.  Alpha-renamed repeats of a
   query therefore render identically; any other equivalent form falls
   through to the core-equivalence scan below. *)
let canonical_render q =
  let body =
    List.stable_sort
      (fun a b -> String.compare (Cq.Atom.pred a) (Cq.Atom.pred b))
      (Cq.Query.body q)
  in
  let q = Cq.Query.make_exn ~name:"q" ~head:(Cq.Query.head q) ~body () in
  let subst =
    Cq.Subst.of_list
      (List.mapi
         (fun i v -> (v, Cq.Term.Var (Printf.sprintf "x%d" i)))
         (Cq.Query.all_vars q))
  in
  Cq.Query.to_string (Cq.Query.apply_subst subst q)

let pred_multiset q =
  String.concat ","
    (List.sort String.compare (List.map Cq.Atom.pred (Cq.Query.body q)))

(* The memoized rewriting search.  Equivalent queries (same answers on
   every database) have interchangeable rewriting sets, so a hit is
   keyed up to Chandra-Merlin equivalence: first the canonical
   rendering, then — because equivalent minimal queries are isomorphic,
   hence share their predicate multiset — an equivalence scan within
   the core's predicate-multiset bucket. *)
let plan_for e query =
  locked e @@ fun () ->
  let stripped = Cq.Query.strip_params query in
  let render = canonical_render stripped in
  match Hashtbl.find_opt e.plans.by_render render with
  | Some plan ->
      Metrics.record Metrics.Key.plan_cache_hits;
      plan
  | None -> (
      let minimized = Cq.Minimize.minimize stripped in
      let pkey = pred_multiset minimized in
      let bucket =
        match Hashtbl.find_opt e.plans.by_preds pkey with
        | Some b -> b
        | None ->
            let b = ref [] in
            Hashtbl.add e.plans.by_preds pkey b;
            b
      in
      match
        List.find_opt
          (fun p -> Cq.Containment.equivalent p.canonical minimized)
          !bucket
      with
      | Some plan ->
          Metrics.record Metrics.Key.plan_cache_hits;
          Hashtbl.replace e.plans.by_render render plan;
          plan
      | None ->
          Metrics.record Metrics.Key.plan_cache_misses;
          let { Rw.Rewrite.queries = rewritings; stats } =
            Metrics.record_time "rewrite" (fun () ->
                Rw.Rewrite.search ~partial:e.partial ?pool:e.pool e.views
                  stripped)
          in
          let plan =
            {
              canonical = minimized;
              plan_rewritings = rewritings;
              plan_stats = stats;
              plan_contained = None;
            }
          in
          bucket := plan :: !bucket;
          Hashtbl.replace e.plans.by_render render plan;
          plan)

let contained_for e plan query =
  locked e @@ fun () ->
  match plan.plan_contained with
  | Some r -> r
  | None ->
      let r =
        Metrics.record_time "rewrite" (fun () ->
            Rw.Rewrite.maximally_contained e.views query)
      in
      plan.plan_contained <- Some r;
      r

let cite e query =
  Metrics.with_sink e.metrics @@ fun () ->
  let plan = plan_for e query in
  let rewritings = plan.plan_rewritings and stats = plan.plan_stats in
  let selected = select e rewritings in
  Log.debug (fun m ->
      m "cite %s: %d candidates, %d rewritings, %d selected"
        (Cq.Query.name query) stats.candidates (List.length rewritings)
        (List.length selected));
  let db = eval_db e in
  (* An uncovered query still gets its answer — with no citation by
     default, or best-effort through the maximally contained rewriting
     when the engine was created with [fallback_contained]. *)
  let selected_or_self, complete =
    if selected <> [] then (selected, true)
    else if e.fallback_contained then
      match contained_for e plan query with
      | [], _ -> ([ Cq.Query.strip_params query ], true)
      | disjuncts, _ -> (disjuncts, false)
    else ([ Cq.Query.strip_params query ], true)
  in
  let templates = List.map (Compute.template e.cviews) selected_or_self in
  let runs =
    Metrics.record_time "eval" @@ fun () ->
    (* the shared eval cache (index memoization) is mutated during the
       run, so the evaluation itself is the critical section *)
    locked e @@ fun () ->
    List.map
      (fun t ->
        ( t,
          Cq.Eval.run_projected ~cache:e.eval_cache db (Compute.rewriting t)
            (Compute.vars t) ))
      templates
  in
  let resolve = leaf_resolver e in
  let tuples = assemble ~resolve e runs in
  let result_expr, result_citations = aggregate ~resolve e tuples in
  {
    query;
    rewritings;
    selected;
    tuples;
    result_expr;
    result_citations;
    complete;
    stats;
  }

let cite_string e src =
  Result.map (cite e) (Cq.Parser.parse_query src)

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "@[<v>query     : %s@,rewritings: %d@,selected  : [%s]@,tuples    : \
     %d@,citations : %d@,complete  : %b@,stats     : %a@]"
    (Cq.Query.to_string r.query)
    (List.length r.rewritings)
    (String.concat "; " (List.map Cq.Query.name r.selected))
    (List.length r.tuples)
    (List.length r.result_citations)
    r.complete Rw.Rewrite.pp_stats r.stats

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let result_to_json (r : result) =
  let jstr s = Printf.sprintf "\"%s\"" (json_escape s) in
  let names qs = String.concat "," (List.map (fun q -> jstr (Cq.Query.name q)) qs) in
  Printf.sprintf
    "{\"query\":%s,\"rewritings\":[%s],\"selected\":[%s],\"tuples\":%d,\"expr\":%s,\"citations\":%s,\"complete\":%b,\"stats\":%s}"
    (jstr (Cq.Query.to_string r.query))
    (names r.rewritings) (names r.selected)
    (List.length r.tuples)
    (jstr (Cite_expr.to_string r.result_expr))
    (Fmt_citation.render Fmt_citation.Json r.result_citations)
    r.complete
    (Rw.Rewrite.stats_to_json r.stats)
