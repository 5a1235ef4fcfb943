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

(* A block of two or more emissions waits in scratch arrays: [tuples]
   and [projs] hold it in arrival order, and [runs] the slots where an
   emission came in smaller than the one before, so the block is
   ascending runs between them.  A block with more than one run is
   sorted through [order] (and [spare]) rather than moved, so the sort
   writes only unboxed ints.  The arrays keep the capacity of the
   largest block seen; a block's slots are cleared once its answers are
   handed on, so the arrays pin no value past its block. *)
type scratch = {
  mutable tuples : R.Tuple.t array;
  mutable projs : R.Value.t array array;
  mutable runs : int array;
  mutable order : int array;
  mutable spare : int array;
}

(* The process keeps one scratch space, which a fold takes and puts
   back when it ends, so its capacity is bought once rather than once
   per cache: a server's per-version engines each have a cache, and a
   block too large for the minor heap is bought in the major one.  A
   fold that finds the space taken — by another thread's fold, or by
   the fold whose callback started it — gathers its blocks in space of
   its own. *)
let idle_scratch = Atomic.make None

let take_scratch () =
  match Atomic.exchange idle_scratch None with
  | Some s -> s
  | None ->
      { tuples = [||]; projs = [||]; runs = [||]; order = [||]; spare = [||] }

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

let grow s =
  let cap = max 64 (2 * Array.length s.tuples) in
  let widen a =
    let b = Array.make cap [||] in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  s.tuples <- widen s.tuples;
  s.projs <- widen s.projs;
  let runs = Array.make (cap + 1) 0 in
  Array.blit s.runs 0 runs 0 (Array.length s.runs);
  s.runs <- runs

(* Slots [i] and [j] of a block by head tuple, then projection. *)
let compare_slots tuples projs ~with_projs i j =
  match R.Tuple.compare tuples.(i) tuples.(j) with
  | 0 when with_projs -> R.Tuple.compare projs.(i) projs.(j)
  | c -> c

(* Merges the ascending, duplicate-free runs [lo .. hi - 1] of the slot
   list [s.order], run [r] starting at [s.runs.(r)], into one from
   [s.order.(s.runs.(lo))] on, through [s.spare], keeping one of each
   pair of equal slots; returns its length.  Halving the runs keeps the
   merges balanced. *)
let rec merge_runs s ~with_projs lo hi =
  let starts = s.runs in
  if hi - lo = 1 then starts.(hi) - starts.(lo)
  else begin
    let mid = (lo + hi) / 2 in
    let left = starts.(lo) + merge_runs s ~with_projs lo mid in
    let right = starts.(mid) + merge_runs s ~with_projs mid hi in
    let a = s.order and tmp = s.spare in
    let tuples = s.tuples and projs = s.projs in
    let first = starts.(lo) in
    Array.blit a first tmp first (left - first);
    (* the output never overtakes the right run's next slot *)
    let i = ref first and j = ref starts.(mid) and o = ref first in
    while !i < left && !j < right do
      let c = compare_slots tuples projs ~with_projs tmp.(!i) a.(!j) in
      if c <= 0 then begin
        a.(!o) <- tmp.(!i);
        incr i;
        if c = 0 then incr j
      end
      else begin
        a.(!o) <- a.(!j);
        incr j
      end;
      incr o
    done;
    Array.blit tmp !i a !o (left - !i);
    let o = !o + left - !i in
    Array.blit a !j a o (right - !j);
    o + right - !j - first
  end

(* Sorts the block's [n] slots, in [runs] ascending runs, by head
   tuple, then projection, into [s.order], each distinct pair once;
   returns how many are left.  [s.runs] holds the runs' starts after
   the first, and gets [n] as the last run's end. *)
let sort_block s n runs ~with_projs =
  if Array.length s.order < n then begin
    s.order <- Array.make (Array.length s.tuples) 0;
    s.spare <- Array.make (Array.length s.tuples) 0
  end;
  for i = 0 to n - 1 do
    s.order.(i) <- i
  done;
  s.runs.(0) <- 0;
  s.runs.(runs) <- n;
  merge_runs s ~with_projs 0 runs

(* The state of the block being gathered: [len] emissions so far; the
   first of them is [first_t] and [first_p] while it is the only one,
   and the scratch arrays hold them all from the second on; and how
   many ascending runs they make. *)
type block = {
  mutable len : int;
  mutable first_t : R.Tuple.t;
  mutable first_p : R.Value.t array;
  mutable runs : int;
  mutable sorts : int;
}

(* The projections of an answer when none is asked for: one, empty,
   shared by every answer. *)
let empty_projection = [ [||] ]

(* The answers of [plan], each with the distinct projections of its
   valuations on the slots [proj], folded by [f] in ascending tuple
   order, each answer's projections ascending.  The plan runs with its
   outer scan in head order, so the emissions arrive in non-decreasing
   order of their first [k] head columns ({!Plan.head_prefix}): each
   block of equal prefix arrives whole, and its answers are handed on
   as soon as the next block starts.  Each emission is compared once
   with the one before it, head tuple first, then projection: a
   greater prefix ends the block; an equal pair is a duplicate,
   dropped; anything else joins the block, and a smaller one starts a
   new ascending run.  A block of several runs is sorted when it ends
   by merging them ({!Metrics.Key.eval_block_sorts}).  A head tuple
   equal to the previous one is that same array, so an emission costs
   one comparison and at most one head tuple and one projection, and
   in a block of one run, equal head tuples are adjacent and
   physically equal.  A one-emission block goes straight to [f]. *)
let fold_grouped plan proj f init =
  let s = take_scratch () in
  let k = Plan.head_prefix plan in
  let with_projs = Array.length proj > 0 in
  let b =
    { len = 0; first_t = [||]; first_p = [||]; runs = 1; sorts = 0 }
  in
  let acc = ref init in
  let clear n =
    Array.fill s.tuples 0 n [||];
    if with_projs then Array.fill s.projs 0 n [||]
  in
  (* Hands on the answers of [m] distinct pairs: slots [0 .. m - 1] of
     a block of one run, or those [s.order] lists of a sorted one.
     Without projections, distinct pairs are distinct answers. *)
  let hand_on m ~sorted =
    let tuples = s.tuples and projs = s.projs and order = s.order in
    let slot r = if sorted then order.(r) else r in
    if not with_projs then
      for r = 0 to m - 1 do
        acc := f tuples.(slot r) empty_projection !acc
      done
    else
      let r = ref 0 in
      while !r < m do
        let t = tuples.(slot !r) in
        let e = ref (!r + 1) in
        while
          !e < m
          &&
          let u = tuples.(slot !e) in
          u == t || (sorted && R.Tuple.equal u t)
        do
          incr e
        done;
        let ps = ref [] in
        for q = !e - 1 downto !r do
          ps := projs.(slot q) :: !ps
        done;
        acc := f t !ps !acc;
        r := !e
      done
  in
  let end_block () =
    let n = b.len in
    if n = 1 then
      acc :=
        f b.first_t
          (if with_projs then [ b.first_p ] else empty_projection)
          !acc
    else if n > 1 then begin
      if b.runs = 1 then hand_on n ~sorted:false
      else begin
        b.sorts <- b.sorts + 1;
        hand_on (sort_block s n b.runs ~with_projs) ~sorted:true
      end;
      clear n
    end;
    b.len <- 0
  in
  let start regs =
    b.first_t <- Plan.head_tuple plan regs;
    if with_projs then b.first_p <- project regs proj;
    b.len <- 1;
    b.runs <- 1
  in
  let emit regs =
    let n = b.len in
    if n = 0 then start regs
    else
      let last_t = if n = 1 then b.first_t else s.tuples.(n - 1) in
      let d = Plan.compare_head plan regs last_t in
      if d > 0 && d <= k then begin
        end_block ();
        start regs
      end
      else
        let c =
          if d <> 0 || not with_projs then d
          else
            compare_projection regs proj
              (if n = 1 then b.first_p else s.projs.(n - 1))
              0
        in
        if c <> 0 then begin
          if n + 1 > Array.length s.tuples then grow s;
          if c < 0 then begin
            s.runs.(b.runs) <- n;
            b.runs <- b.runs + 1
          end;
          if n = 1 then begin
            s.tuples.(0) <- b.first_t;
            if with_projs then s.projs.(0) <- b.first_p
          end;
          s.tuples.(n) <-
            (if d = 0 then last_t else Plan.head_tuple plan regs);
          if with_projs then s.projs.(n) <- project regs proj;
          b.len <- n + 1
        end
  in
  Fun.protect
    ~finally:(fun () ->
      if b.len > 1 then clear b.len;
      Atomic.set idle_scratch (Some s);
      if b.sorts > 0 then Metrics.(record ~by:b.sorts Key.eval_block_sorts))
    (fun () ->
      Plan.execute ~head_order:true plan emit;
      end_block ();
      !acc)

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

(* Citation needs, per head tuple, only the values of the variables
   that feed view parameters, and only their distinct combinations, so
   the payload is the projection and duplicates drop in the grouping. *)
let fold_projected ?cache db q vars f init =
  let cache = resolve_cache cache in
  let plan = plan_for cache db q in
  fold_grouped plan (Array.of_list (List.map (slot_index plan q) vars)) f init

let collect t ps acc = (t, ps) :: acc

let run_projected ?cache db q vars =
  List.rev (fold_projected ?cache db q vars collect [])

(* A binding's map compares its values in variable-name order, so
   projecting every slot in that order makes {!Binding.compare} the
   projections' {!R.Tuple.compare}: [run] is [run_projected] on all the
   variables, sorted, with each projection read back as a binding. *)
let run ?cache db q =
  let cache = resolve_cache cache in
  let plan = plan_for cache db q in
  let names = List.sort String.compare (Array.to_list (Plan.slots plan)) in
  let template = slot_template (Array.of_list names) in
  let proj = Array.of_list (List.map (slot_index plan q) names) in
  List.rev
    (fold_grouped plan proj
       (fun t ps acc -> (t, List.map (binding_of_regs template) ps) :: acc)
       [])

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
