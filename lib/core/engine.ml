module Cq = Dc_cq
module R = Dc_relational
module Rw = Dc_rewriting
module Once = Dc_parallel.Once

let log_src = Logs.Src.create "datacite.engine" ~doc:"Citation engine"

module Log = (val Logs.src_log log_src)

type selection = [ `All | `Min_estimated_size | `Min_exact_size ]

(* A memoized rewriting search, for one query shape (see [shape]).
   [source] is the stripped query the search ran on and [lifted] the
   constants lifted out of it, in rank order: a query of the same shape
   gets the plan with each [lifted.(i)] renamed to its own [i]-th lifted
   constant (see [renaming]).  [canonical] is the minimized shape: two
   shapes share a plan iff their cores are equivalent, which holds iff
   the shapes are.  Each rewriting comes with its template, which holds
   its expansion over the base schema: what a cite evaluates.  The
   maximally-contained fallback's templates are filled in lazily on
   first use, for [source]. *)
type plan = {
  canonical : Cq.Query.t;
  source : Cq.Query.t;
  lifted : R.Value.t array;
  plan_rewritings : (Cq.Query.t * Compute.template) list;
  plan_stats : Rw.Rewrite.stats;
  mutable plan_contained : Compute.template list option;
}

module Shape_map = Map.Make (struct
  type t = Cq.Query.t

  let compare = Cq.Query.compare_syntactic
end)

(* One domain's rewriting plans for one view set.  Two-level lookup: a
   cheap canonical shape catches repeats of the same (or alpha-renamed)
   query shape with zero containment work; the sorted-predicate-multiset
   buckets catch any other equivalent form via Chandra-Merlin
   equivalence of the cores.  [by_shape] is immutable, so a hit reads it
   without a lock; [plan_lock] serializes the misses that replace it,
   [by_preds] and the plans' [plan_contained] against the domain's other
   systhreads. *)
type plan_cache = {
  plan_lock : Mutex.t;
  mutable by_shape : plan Shape_map.t;
  by_preds : (string, plan list ref) Hashtbl.t;
}

(* The program's IDB extents, and the base database with them added:
   what a query or citation query naming an IDB predicate runs over. *)
type idb = { derived : R.Database.t; full : R.Database.t }

(* An engine's IDB extents, computed on first demand.  [link] points at
   the cell of an engine over an older database, with the changes (to
   the program's input relations) that turn that database into this
   one; it is cleared once [value] is computed, so a computed cell pins
   no ancestor. *)
type cell = {
  value : idb Once.t;
  link : (cell * R.Delta.t) option Atomic.t;
}

(* The identity of a set of caches, which each domain keeps separately
   (see [Caches] and [Leaves]).  Copies of an engine that may share a
   cache share its owner. *)
type owner = { id : int }

let next_owner = Atomic.make 0
let owner () = { id = Atomic.fetch_and_add next_owner 1 }

(* One domain's caches for one owner.  [lock] guards them, and the
   domain's leaf caches of the engines holding this owner, against the
   domain's other systhreads (the server's worker pool).  The IDB cell is
   never forced with [lock] held: its computation may take it (see
   [idb_cell]). *)
type caches = { lock : Mutex.t; eval_cache : Cq.Eval.cache }

module Owner = struct
  type t = owner

  let id o = o.id
end

module Caches =
  Dc_parallel.Domain_local.Make
    (Owner)
    (struct
      type t = caches

      let create _ =
        { lock = Mutex.create (); eval_cache = Cq.Eval.make_cache () }
    end)

module Plans =
  Dc_parallel.Domain_local.Make
    (Owner)
    (struct
      type t = plan_cache

      let create _ =
        {
          plan_lock = Mutex.create ();
          by_shape = Shape_map.empty;
          by_preds = Hashtbl.create 16;
        }
    end)

(* The rewriting plans of one view set.  Rewriting only ever tests
   constants for equality, except that it sorts candidate atoms, so it
   commutes with every renaming of constants that fixes the views' own
   ([view_constants], sorted and distinct) and keeps the order of all
   constants.  [shape] lifts every other constant into a placeholder:
   [placeholder], longer than every string view constant, followed by
   the constant's rank and the number of view constants below it. *)
type shapes = {
  plans : owner;
  view_constants : R.Value.t array;
  placeholder : string;
}

(* Leaf-cache keys are leaves with their parameters sorted by name (see
   [leaf_key]), compared as typed values: [Int 1] and [Str "1"] are
   different keys. *)
module Leaf_tbl = Hashtbl.Make (struct
  type t = Cite_expr.leaf

  let equal (a : t) (b : t) =
    String.equal a.view b.view
    && List.equal
         (fun (n, x) (m, y) -> String.equal n m && R.Value.equal x y)
         a.params b.params

  let hash (l : t) =
    List.fold_left
      (fun h (n, x) -> Hashtbl.hash (h, n, R.Value.hash x))
      (Hashtbl.hash l.view) l.params
end)

module Leaves =
  Dc_parallel.Domain_local.Make
    (Owner)
    (struct
      type t = Citation.t Leaf_tbl.t

      let create _ = Leaf_tbl.create 64
    end)

type t = {
  base : R.Database.t;  (** EDB relations only *)
  idb : cell;
      (** derived by {!Dc_cq.Seminaive} from [program] on first demand;
          [derived] is empty for program-free engines *)
  program : Cq.Program.t option;
  cviews : Citation_view.Set.t;
  views : Rw.View.Set.t;
  policy : Policy.t;
  selection : selection;
  partial : bool;
  fallback_contained : bool;
  shapes : shapes;
      (** the rewriting plans: they depend on the view set alone, so
          every [refresh] and [replicate] copy shares them *)
  caches : owner;
      (** the eval cache: its entries self-invalidate, so [refresh]
          copies keep it *)
  leaves : owner;
      (** the leaf cache: concrete citations computed from the data, so
          every data change gets a fresh one *)
  metrics : Metrics.t;
}

(* A contended acquisition is counted: the uncontended path costs one
   atomic attempt.  Every call site runs under [with_sink e.metrics], so
   the wait is charged to the engine's own registry as well as the
   default one. *)
let locked lock f =
  if not (Mutex.try_lock lock) then begin
    Metrics.record Metrics.Key.engine_lock_waits;
    Mutex.lock lock
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let merge_full base derived =
  List.fold_left R.Database.add_relation base (R.Database.relations derived)

(* A cell's link is cleared only after its value is published, so a
   walker that finds a link gone finds the value set. *)
let force_cell c =
  let v = Once.force c.value in
  if Option.is_some (Atomic.get c.link) then Atomic.set c.link None;
  v

(* The nearest computed cell up the chain from [link], never forcing
   one, with the changes from its database to this cell's.  [deltas]
   collects the links' changes oldest first, so they are joined once,
   in O(their size). *)
let rec nearest_derived link deltas =
  match Atomic.get link with
  | None -> None
  | Some (c, d) -> (
      let deltas = d :: deltas in
      let found idb =
        Some (idb, List.fold_left R.Delta.union R.Delta.empty deltas)
      in
      match Once.peek c.value with
      | Some idb -> found idb
      | None -> (
          match nearest_derived c.link deltas with
          | None -> Option.bind (Once.peek c.value) found
          | further -> further))

(* Materialize a program's IDB predicates into their own database,
   continuing from [from] (an ancestor's extents and the changes since)
   when given; the semi-naive run validates name collisions and
   stratification was checked at [Program.make] time. *)
let derive ?cache ?from base (program : Cq.Program.t) =
  let out =
    match from with
    | None -> Cq.Seminaive.run ?cache base program.strat
    | Some (anc, changes) ->
        Cq.Seminaive.continue ?cache ~prior:anc.derived
          ~changes:(R.Delta.net ~before:anc.full ~after:base changes)
          base program.strat
  in
  List.fold_left
    (fun d p -> R.Database.add_relation d (R.Database.relation_exn out p))
    R.Database.empty
    (Cq.Program.idb_preds program)

(* The data of an engine over [base], not computed yet: the program's
   IDB extents, derived on first demand — continued from the nearest
   computed cell up [ancestor]'s chain, if any — with the forcing
   domain's [caches] of the engine building the cell, under their lock,
   so every refresh of one engine reuses one eval cache per domain for
   this work. *)
let idb_cell ?ancestor ~metrics ~caches ~program base =
  match program with
  | None ->
      {
        value = Once.of_value { derived = R.Database.empty; full = base };
        link = Atomic.make None;
      }
  | Some p ->
      let inputs =
        Cq.Stratify.edb_preds p.Cq.Program.strat (Cq.Program.rules p)
      in
      let link =
        Atomic.make
          (Option.map (fun (c, d) -> (c, R.Delta.restrict d inputs)) ancestor)
      in
      let value =
        Once.make (fun () ->
            Metrics.with_sink metrics (fun () ->
                let c = Caches.get caches in
                let from = nearest_derived link [] in
                let derived =
                  locked c.lock (fun () ->
                      Metrics.record_time "derive" (fun () ->
                          derive ~cache:c.eval_cache ?from base p))
                in
                { derived; full = merge_full base derived }))
      in
      { value; link }

let constants q =
  List.filter_map Cq.Term.value (Cq.Query.head q)
  @ List.concat_map Cq.Atom.constants (Cq.Query.body q)

let shapes_of cview_list =
  let view_constants =
    Array.of_list
      (List.sort_uniq R.Value.compare
         (List.concat_map
            (fun cv -> constants (Citation_view.definition cv))
            cview_list))
  in
  let longest =
    Array.fold_left
      (fun n -> function R.Value.Str s -> max n (String.length s) | _ -> n)
      0 view_constants
  in
  {
    plans = owner ();
    view_constants;
    placeholder = String.make (longest + 1) '\000';
  }

let make_engine ~policy ~selection ~partial ~fallback_contained ~metrics
    ~program base cview_list =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let caches = owner () in
  let cviews = Citation_view.Set.of_list cview_list in
  let idb = idb_cell ~metrics ~caches ~program base in
  (* Validation needs the IDB schemas, so a program's first derivation
     runs here. *)
  let full = (force_cell idb).full in
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
  {
    base;
    idb;
    program;
    cviews;
    views = Citation_view.Set.view_set cviews;
    policy;
    selection;
    partial;
    fallback_contained;
    (* the plan cache belongs to the view set, which is fixed at
       creation: a fresh engine (possibly with different views) always
       starts cold *)
    shapes = shapes_of cview_list;
    caches;
    leaves = owner ();
    metrics;
  }

let create ?(policy = Policy.default) ?(selection = `Min_estimated_size)
    ?(partial = false) ?(fallback_contained = false) ?metrics base
    cview_list =
  make_engine ~policy ~selection ~partial ~fallback_contained ~metrics
    ~program:None base cview_list

let of_program ?(policy = Policy.default) ?(selection = `Min_estimated_size)
    ?(partial = false) ?(fallback_contained = false) ?metrics
    ?(views = []) base program =
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
  make_engine ~policy ~selection ~partial ~fallback_contained ~metrics
    ~program:(Some program) base cview_list

(* Same data cell (whichever copy forces it first computes it for all),
   view set and its plan cache, policy and metrics registry; eval
   and leaf caches of its own. *)
let replicate e = { e with caches = owner (); leaves = owner () }

let database e = e.base
let program e = e.program

let derived_predicates e =
  match e.program with None -> [] | Some p -> Cq.Program.idb_preds p

let recursive_predicates e =
  match e.program with None -> [] | Some p -> Cq.Program.recursive_preds p

let citation_views e = e.cviews
let policy e = e.policy
let selection e = e.selection
let eval_cache e = (Caches.get e.caches).eval_cache
let metrics e = e.metrics

(* The database a computation naming [preds] runs over: the base alone
   unless one of them is an IDB predicate.  Forces the IDB cell, so
   never call it with a cache lock held. *)
let db_for e preds =
  match e.program with
  | Some p when List.exists (Cq.Program.is_idb p) preds ->
      (force_cell e.idb).full
  | _ -> e.base

let derived_database e = (force_cell e.idb).derived

(* Computed afresh on every call: no cite reads a view extent. *)
let view_database e =
  Metrics.with_sink e.metrics @@ fun () ->
  Metrics.record_time "materialize" @@ fun () ->
  List.fold_left
    (fun db cv ->
      let def = Citation_view.definition cv in
      R.Database.add_relation db
        (Cq.Eval.result (db_for e (Cq.Query.predicates def)) def))
    R.Database.empty
    (Citation_view.Set.to_list e.cviews)

let merged_database e =
  merge_full (force_cell e.idb).full (view_database e)

(* [refresh] changes only the data, never the view set or rule set, so
   the plan cache (rewritings depend on views alone, and every copy of
   an engine shares it) and the eval cache
   (entries self-invalidate on relation identity) are kept; only the
   leaf cache — concrete citations computed from the data — must be
   dropped.  [refresh] computes nothing: its IDB cell derives when a
   cite first reads it. *)
let refresh ?ancestor e base =
  let idb =
    idb_cell ?ancestor ~metrics:e.metrics ~caches:e.caches ~program:e.program
      base
  in
  { e with base; idb; leaves = owner () }

let cell e = e.idb

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
  { l with params = List.sort (fun (a, _) (b, _) -> String.compare a b) l.params }

(* A miss resolves outside the lock: the citation queries run over the
   IDB extents only when they name an IDB predicate, and forcing those
   must not happen under the lock.  The cache is checked again before
   the result is stored, in case a concurrent miss got there first. *)
let resolve_in e c leaf_cache (l : Cite_expr.leaf) =
  Metrics.with_sink e.metrics @@ fun () ->
  let k = leaf_key l in
  match locked c.lock (fun () -> Leaf_tbl.find_opt leaf_cache k) with
  | Some c ->
      Metrics.record Metrics.Key.leaf_cache_hits;
      c
  | None -> (
      Metrics.record Metrics.Key.leaf_cache_misses;
      let cv = Citation_view.Set.find_exn e.cviews l.view in
      let db =
        db_for e
          (List.concat_map Cq.Query.predicates
             (Citation_view.citation_queries cv))
      in
      locked c.lock @@ fun () ->
      match Leaf_tbl.find_opt leaf_cache k with
      | Some cit -> cit
      | None ->
          let cit = Citation_view.cite ~cache:c.eval_cache cv db l.params in
          Leaf_tbl.add leaf_cache k cit;
          cit)

let resolve_leaf e l =
  resolve_in e (Caches.get e.caches) (Leaves.get e.leaves) l

(* The size estimates read the definitions of the views the candidate
   rewritings use, so those decide whether the IDB extents are needed.
   Their statistics are memoized on the relation values, so no cache
   lock is taken. *)
let select e rewritings =
  let estimate_db rs =
    db_for e
      (List.concat_map
         (fun r ->
           List.concat_map
             (fun p ->
               match Citation_view.Set.find e.cviews p with
               | Some cv -> Cq.Query.predicates (Citation_view.definition cv)
               | None -> [])
             (Cq.Query.predicates r))
         rs)
  in
  match (e.selection, rewritings) with
  | `All, _ | _, ([] | [ _ ]) -> rewritings
  | ((`Min_estimated_size | `Min_exact_size) as s), rs ->
      Option.to_list
        (Rw.Cost.choose_min_size ~exact:(s = `Min_exact_size) (estimate_db rs)
           e.views rs)

(* One resolver per cite (or per maintenance step): each distinct leaf
   takes the cache lock and the domain's leaf cache once, however many
   tuples cite it.  The caches are looked up once, on the domain making
   the resolver. *)
let leaf_resolver e =
  let memo = Leaf_tbl.create 16 in
  let caches = Caches.get e.caches and leaf_cache = Leaves.get e.leaves in
  fun (l : Cite_expr.leaf) ->
    match Leaf_tbl.find_opt memo l with
    | Some c -> c
    | None ->
        let c = resolve_in e caches leaf_cache l in
        Leaf_tbl.add memo l c;
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

(* Binary search in a sorted array of distinct values. *)
let rank a v =
  let rec go lo hi =
    if lo >= hi then Error lo
    else
      let mid = (lo + hi) / 2 in
      let c = R.Value.compare v a.(mid) in
      if c = 0 then Ok mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length a)

(* The plan-cache key of a stripped query, with its lifted constants.
   A cheap, containment-free canonical form: body atoms grouped by
   predicate (stable, so the reorder is independent of variable names
   only across alpha-renaming, not across arbitrary body permutations),
   every variable renamed to x<i> in order of first occurrence, and
   every constant that is not a view constant lifted into a placeholder.
   Lifted constants are numbered by rank, not by occurrence, and each
   placeholder records how many view constants sort below its value:
   two queries of one shape then differ by an order-preserving renaming
   of constants that fixes the views', with which the search commutes
   (see [shapes]; numbering by occurrence would not keep the order).
   Alpha-renamed repeats of a shape therefore key identically; any
   other equivalent form falls through to the core-equivalence scan of
   [plan_for]. *)
let shape s q =
  let lifted =
    Array.of_list
      (List.sort_uniq R.Value.compare
         (List.filter
            (fun c -> Result.is_error (rank s.view_constants c))
            (constants q)))
  in
  let vars = Hashtbl.create 8 in
  let term = function
    | Cq.Term.Var v -> (
        match Hashtbl.find_opt vars v with
        | Some t -> t
        | None ->
            let t =
              Cq.Term.Var (Printf.sprintf "x%d" (Hashtbl.length vars))
            in
            Hashtbl.add vars v t;
            t)
    | Cq.Term.Const c as t -> (
        match rank lifted c with
        | Error _ -> t
        | Ok i ->
            let below =
              Result.fold ~ok:Fun.id ~error:Fun.id (rank s.view_constants c)
            in
            Cq.Term.Const
              (R.Value.Str (Printf.sprintf "%s%d:%d" s.placeholder i below)))
  in
  let head = List.map term (Cq.Query.head q) in
  let body =
    List.map
      (fun a -> Cq.Atom.make (Cq.Atom.pred a) (List.map term (Cq.Atom.args a)))
      (List.stable_sort
         (fun a b -> String.compare (Cq.Atom.pred a) (Cq.Atom.pred b))
         (Cq.Query.body q))
  in
  (Cq.Query.make_exn ~name:"q" ~head ~body (), lifted)

let template e rw = Compute.template e.views e.cviews rw

let pred_multiset q =
  String.concat ","
    (List.sort String.compare (List.map Cq.Atom.pred (Cq.Query.body q)))

(* The memoized rewriting search of a stripped query.  Equivalent
   queries (same answers on every database) have interchangeable
   rewriting sets, so a hit is keyed up to Chandra-Merlin equivalence of
   shapes: first the shape itself, then — because equivalent minimal
   queries are isomorphic, hence share their predicate multiset — an
   equivalence scan within the minimized shape's predicate-multiset
   bucket.  Returns the plan with the query's lifted constants. *)
let plan_for e stripped =
  let key, lifted = shape e.shapes stripped in
  let c = Plans.get e.shapes.plans in
  let hit plan =
    Metrics.record Metrics.Key.plan_cache_hits;
    (plan, lifted)
  in
  match Shape_map.find_opt key c.by_shape with
  | Some plan -> hit plan
  | None -> (
      locked c.plan_lock @@ fun () ->
      match Shape_map.find_opt key c.by_shape with
      | Some plan -> hit plan
      | None -> (
          let minimized = Cq.Minimize.minimize key in
          let pkey = pred_multiset minimized in
          let bucket =
            match Hashtbl.find_opt c.by_preds pkey with
            | Some b -> b
            | None ->
                let b = ref [] in
                Hashtbl.add c.by_preds pkey b;
                b
          in
          match
            List.find_opt
              (fun p -> Cq.Containment.equivalent p.canonical minimized)
              !bucket
          with
          | Some plan ->
              c.by_shape <- Shape_map.add key plan c.by_shape;
              hit plan
          | None ->
              Metrics.record Metrics.Key.plan_cache_misses;
              let { Rw.Rewrite.queries = rewritings; stats } =
                Metrics.record_time "rewrite" (fun () ->
                    Rw.Rewrite.search ~partial:e.partial e.views stripped)
              in
              let plan =
                {
                  canonical = minimized;
                  source = stripped;
                  lifted;
                  plan_rewritings =
                    List.map (fun rw -> (rw, template e rw)) rewritings;
                  plan_stats = stats;
                  plan_contained = None;
                }
              in
              bucket := plan :: !bucket;
              c.by_shape <- Shape_map.add key plan c.by_shape;
              (plan, lifted)))

(* The renaming of constants that turns [plan] into the plan of a query
   whose lifted constants are [lifted]: rank for rank.  [None] when they
   are the plan's own.  A plan's constants are view constants or
   constants of its core, whose placeholders the query's core shares. *)
let renaming plan lifted =
  if Array.length lifted = Array.length plan.lifted
     && Array.for_all2 R.Value.equal lifted plan.lifted
  then None
  else
    Some
      (fun v ->
        match rank plan.lifted v with
        | Ok i when i < Array.length lifted -> lifted.(i)
        | _ -> v)

let contained_for e plan =
  let c = Plans.get e.shapes.plans in
  locked c.plan_lock @@ fun () ->
  match plan.plan_contained with
  | Some ts -> ts
  | None ->
      let disjuncts, _ =
        Metrics.record_time "rewrite" (fun () ->
            Rw.Rewrite.maximally_contained e.views plan.source)
      in
      let ts = List.map (template e) disjuncts in
      plan.plan_contained <- Some ts;
      ts

let cite e query =
  Metrics.with_sink e.metrics @@ fun () ->
  let stripped = Cq.Query.strip_params query in
  let plan, lifted = plan_for e stripped in
  let rename = renaming plan lifted in
  let plan_rewritings =
    match rename with
    | None -> plan.plan_rewritings
    | Some f ->
        List.map
          (fun (rw, t) ->
            (Cq.Query.map_constants f rw, Compute.map_constants f t))
          plan.plan_rewritings
  in
  let rewritings = List.map fst plan_rewritings
  and stats = plan.plan_stats in
  let selected = select e rewritings in
  Log.debug (fun m ->
      m "cite %s: %d candidates, %d rewritings, %d selected"
        (Cq.Query.name query) stats.candidates (List.length rewritings)
        (List.length selected));
  (* An uncovered query still gets its answer — with no citation by
     default, or best-effort through the maximally contained rewriting
     when the engine was created with [fallback_contained]. *)
  let self () = [ template e stripped ] in
  let templates, complete =
    if selected <> [] then
      (List.map (fun rw -> List.assq rw plan_rewritings) selected, true)
    else if e.fallback_contained then
      match contained_for e plan with
      | [] -> (self (), true)
      | ts ->
          ( Option.fold ~none:ts
              ~some:(fun f -> List.map (Compute.map_constants f) ts)
              rename,
            false )
    else (self (), true)
  in
  (* Each template evaluates its rewriting's expansion, which reads base
     relations, and IDB extents only when it names an IDB predicate. *)
  let db =
    db_for e
      (List.concat_map
         (fun t ->
           Option.fold ~none:[] ~some:Cq.Query.predicates (Compute.expansion t))
         templates)
  in
  let c = Caches.get e.caches in
  let runs =
    Metrics.record_time "eval" @@ fun () ->
    (* the eval cache (index memoization) is mutated during the run, so
       the evaluation itself is the critical section *)
    locked c.lock @@ fun () ->
    List.map (fun t -> (t, Compute.run ~cache:c.eval_cache db t)) templates
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

type capabilities = {
  backend : string;
  supports_versions : bool;
  supports_recursion : bool;
  shards : int;
}

let pp_capabilities ppf c =
  Format.fprintf ppf "%s (shards=%d, versions=%b, recursion=%b)" c.backend
    c.shards c.supports_versions c.supports_recursion

let capabilities_to_string c = Format.asprintf "%a" pp_capabilities c

let capabilities_to_json c =
  Printf.sprintf
    "{\"backend\":\"%s\",\"shards\":%d,\"supports_versions\":%b,\"supports_recursion\":%b}"
    c.backend c.shards c.supports_versions c.supports_recursion

let describe e =
  {
    backend = "engine";
    supports_versions = false;
    supports_recursion = recursive_predicates e <> [];
    shards = 1;
  }
