module R = Dc_relational
module Sset = Set.Make (String)
module Smap = Map.Make (String)
module Metrics = Dc_parallel.Metrics

let delta_suffix = "__delta"
let delta_name p = p ^ delta_suffix

(* IDB extents are named like query results, after the first defining
   rule's head. *)
let idb_schema name (rules : Rule.t list) =
  match rules with
  | r :: _ -> Eval.head_schema name (Atom.args (Rule.head r))
  | [] -> invalid_arg "idb_schema: no rules"

let rules_for p rules = List.filter (fun r -> Rule.head_pred r = p) rules

let stratum_preds rules =
  List.fold_left
    (fun acc r ->
      let p = Rule.head_pred r in
      if List.mem p acc then acc else acc @ [ p ])
    [] rules

(* Evaluate one rule body (a literal list, possibly with delta-renamed
   atoms) against [db], returning derived head tuples.  The positive
   body compiles through Plan/Eval; negated literals — ground under any
   positive-body binding by rule safety — filter afterwards. *)
let eval_body cache db ~head lits =
  let pos =
    List.filter_map (function Rule.Pos a -> Some a | Rule.Neg _ -> None) lits
  in
  let neg =
    List.filter_map (function Rule.Neg a -> Some a | Rule.Pos _ -> None) lits
  in
  let pos = if pos = [] then [ Atom.make "True" [] ] else pos in
  let q =
    Query.make_exn ~name:(Atom.pred head) ~head:(Atom.args head) ~body:pos ()
  in
  if neg = [] then R.Relation.tuples (Eval.result ~cache db q)
  else
    let negated_holds b a =
      match R.Database.relation db (Atom.pred a) with
      | None -> false
      | Some rel ->
          let tup =
            R.Tuple.make
              (List.map
                 (function
                   | Term.Const c -> c
                   | Term.Var v -> Eval.Binding.find_exn b v)
                 (Atom.args a))
          in
          R.Relation.mem rel tup
    in
    Eval.bindings ~cache db q
    |> List.filter_map (fun b ->
           if List.exists (negated_holds b) neg then None
           else Some (Eval.tuple_of_binding q b))

(* Add an empty extent for every body predicate the database lacks, so
   plans always find their relations; the result database never sees
   these placeholders. *)
let with_placeholders wdb rules =
  List.fold_left
    (fun wdb r ->
      List.fold_left
        (fun wdb lit ->
          let a = match lit with Rule.Pos a | Rule.Neg a -> a in
          let p = Atom.pred a in
          if p = "True" || R.Database.mem_relation wdb p then wdb
          else
            let cols =
              List.init (Atom.arity a) (fun i ->
                  R.Schema.attr (Printf.sprintf "a%d" i))
            in
            R.Database.add_relation wdb
              (R.Relation.empty (R.Schema.make p cols)))
        wdb (Rule.body r))
    wdb rules

(* Delta variants of a rule: one body per occurrence of a same-stratum
   predicate in the positive body, that occurrence redirected to the
   delta relation.  A rule with no same-stratum occurrence has no
   variants — it only contributes in the initial round. *)
let variant_bodies preds r =
  let rec go prefix acc = function
    | [] -> List.rev acc
    | (Rule.Pos a as lit) :: rest when Sset.mem (Atom.pred a) preds ->
        let renamed =
          Rule.Pos (Atom.make (delta_name (Atom.pred a)) (Atom.args a))
        in
        let body = List.rev_append prefix (renamed :: rest) in
        go (lit :: prefix) (body :: acc) rest
    | lit :: rest -> go (lit :: prefix) acc rest
  in
  go [] [] (Rule.body r)

(* Every rule's variants over [preds], with their heads. *)
let variants preds rules =
  List.concat_map
    (fun r ->
      List.map (fun body -> (Rule.head r, body)) (variant_bodies preds r))
    rules

let fresh_tuples full derived =
  List.filter (fun t -> not (R.Relation.mem full t)) derived

(* [rel] under its delta name, holding [tuples]. *)
let delta_relation rel tuples =
  let schema = R.Relation.schema rel in
  R.Relation.of_list
    (R.Schema.make (delta_name (R.Schema.name schema))
       (R.Schema.attributes schema))
    tuples

(* The one fixpoint loop.  [init] holds the stratum's starting extents
   (empty, or a prior fixpoint being continued), [seeds] the bodies of
   the seed round (the rules themselves, or a continued stratum's
   variants over its changed lower relations) and [seed_deltas] the
   delta relations they read.
   Each later round evaluates the variants over the stratum's own
   deltas.  Returns the final working database, the stratum's extents
   and, per predicate, every tuple the loop added to [init]. *)
let eval_stratum cache ~recursive ~init ~seeds ~seed_deltas wdb rules =
  if recursive then Metrics.(record Key.datalog_fixpoints);
  let preds = stratum_preds rules in
  let full = Hashtbl.create 4 and added = Hashtbl.create 4 in
  List.iter
    (fun p ->
      Hashtbl.replace full p (init p);
      Hashtbl.replace added p [])
    preds;
  let install wdb =
    (* full extents under real names, last deltas under delta names *)
    List.fold_left
      (fun wdb p -> R.Database.add_relation wdb (Hashtbl.find full p))
      wdb preds
  in
  let install_deltas wdb deltas =
    List.fold_left
      (fun wdb p ->
        let tuples = try Hashtbl.find deltas p with Not_found -> [] in
        R.Database.add_relation wdb
          (delta_relation (Hashtbl.find full p) tuples))
      wdb preds
  in
  let round wdb bodies =
    let next = Hashtbl.create 4 in
    List.iter
      (fun (head, body) ->
        let derived = eval_body cache wdb ~head body in
        let p = Atom.pred head in
        let fresh = fresh_tuples (Hashtbl.find full p) derived in
        Hashtbl.replace next p
          (List.rev_append fresh (try Hashtbl.find next p with Not_found -> [])))
      bodies;
    next
  in
  let merge deltas =
    let any = ref false in
    List.iter
      (fun p ->
        match Hashtbl.find_opt deltas p with
        | None | Some [] -> Hashtbl.replace deltas p []
        | Some tuples ->
            let dedup =
              List.sort_uniq R.Tuple.compare tuples
              |> fresh_tuples (Hashtbl.find full p)
            in
            if dedup <> [] then begin
              any := true;
              Hashtbl.replace full p
                (R.Relation.insert_list (Hashtbl.find full p) dedup);
              Hashtbl.replace added p
                (List.rev_append dedup (Hashtbl.find added p))
            end;
            Hashtbl.replace deltas p dedup)
      preds;
    !any
  in
  let variants = variants (Sset.of_list preds) rules in
  let rec iterate wdb deltas =
    if not (merge deltas) then install wdb
    else begin
      if recursive then Metrics.(record Key.datalog_iterations);
      let wdb = install_deltas (install wdb) deltas in
      iterate wdb (round wdb variants)
    end
  in
  let wdb0 = install wdb in
  let first =
    round
      (List.fold_left
         (fun wdb rel -> R.Database.add_relation wdb rel)
         wdb0 seed_deltas)
      seeds
  in
  let wdb = iterate wdb0 first in
  ( wdb,
    List.map (fun p -> (p, Hashtbl.find full p)) preds,
    List.map (fun p -> (p, Hashtbl.find added p)) preds )

(* How a relation read by a stratum changed since the prior derivation:
   its net insertions and deletions, or [Replaced] when its stratum was
   derived from empty extents. *)
type change = Changed of R.Tuple.t list * R.Tuple.t list | Replaced

(* The body literals of a stratum's rules over relations below it, with
   their polarity. *)
let lower_reads rules =
  let own = Sset.of_list (stratum_preds rules) in
  List.concat_map
    (fun r ->
      List.filter_map
        (function
          | Rule.Pos a when not (Sset.mem (Atom.pred a) own) ->
              Some (Atom.pred a, true)
          | Rule.Neg a -> Some (Atom.pred a, false)
          | Rule.Pos _ -> None)
        (Rule.body r))
    rules

let check_names db (s : Stratify.t) =
  List.iter
    (fun p ->
      if R.Database.mem_relation db p then
        invalid_arg
          (Printf.sprintf
             "Seminaive.run: IDB predicate %s collides with an existing \
              relation"
             p))
    s.idb;
  (* Recursive predicates iterate over their delta extents, a continued
     stratum reads the changes of the relations below it through theirs,
     and re-derives its own suspect tuples through its own. *)
  let read =
    List.concat_map
      (fun rules -> List.map fst (List.filter snd (lower_reads rules)))
      s.strata
  in
  List.iter
    (fun p ->
      if R.Database.mem_relation db (delta_name p) then
        invalid_arg
          (Printf.sprintf
             "Seminaive.run: relation %s shadows the delta extent of %s"
             (delta_name p) p))
    (List.sort_uniq String.compare (s.idb @ read))

let resolve_cache = function Some c -> c | None -> Eval.make_cache ()

let run_strata ~stratum db (s : Stratify.t) =
  check_names db s;
  let all_rules = List.concat s.strata in
  let result = ref db in
  let wdb = ref (with_placeholders db all_rules) in
  List.iter
    (fun rules ->
      let recursive =
        List.exists (fun r -> Stratify.is_recursive s (Rule.head_pred r)) rules
      in
      let wdb', results = stratum ~recursive !wdb rules in
      wdb := wdb';
      result :=
        List.fold_left
          (fun db (_, rel) -> R.Database.add_relation db rel)
          !result results)
    s.strata;
  !result

(* Continue a stratum from its prior extents [exts], given the net
   change [(ins, del)] of each changed relation it reads, all
   positively.  Deletions come only under a non-recursive stratum, of
   one predicate, and first over-delete: the variants over the deleted
   tuples, evaluated over the inputs as they were, derive the prior
   tuples that lost a derivation.  The seed round evaluates the variants
   over the inserted tuples and re-derives each lost tuple through the
   rules pinned to it by a [p ^ delta_suffix] atom over their head, from
   the prior extents without the lost tuples.  Returns the loop's
   results with each predicate's net change. *)
let continue_stratum cache ~recursive ~prior ~exts ~changed wdb rules =
  let pick f = List.filter (fun (_, ts) -> ts <> []) (List.map f changed) in
  let ins = pick (fun (p, (ins, _)) -> (p, ins))
  and del = pick (fun (p, (_, del)) -> (p, del)) in
  let delta_of (p, ts) = delta_relation (R.Database.relation_exn wdb p) ts in
  let lost =
    if del = [] then []
    else
      (* the inputs as they were are [prior]'s *)
      let old =
        List.fold_left R.Database.add_relation wdb
          (List.map (fun (p, _) -> R.Database.relation_exn prior p) changed
          @ List.map delta_of del)
      in
      List.sort_uniq R.Tuple.compare
        (List.concat_map
           (fun (head, body) -> eval_body cache old ~head body)
           (variants (Sset.of_list (List.map fst del)) rules))
  in
  let pinned r =
    let head = Rule.head r in
    let pin = Atom.make (delta_name (Atom.pred head)) (Atom.args head) in
    (head, Rule.body r @ [ Rule.Pos pin ])
  in
  let wdb, results, added =
    eval_stratum cache ~recursive
      ~init:(fun p -> List.fold_left R.Relation.delete (List.assoc p exts) lost)
      ~seeds:
        (variants (Sset.of_list (List.map fst ins)) rules
        @ if lost = [] then [] else List.map pinned rules)
      ~seed_deltas:
        (List.map delta_of ins
        @ List.map (fun (_, ext) -> delta_relation ext lost) exts)
      wdb rules
  in
  let net (p, added) =
    let absent rels t = not (R.Relation.mem (List.assoc p rels) t) in
    match
      (List.filter (absent exts) added, List.filter (absent results) lost)
    with
    | [], [] -> None
    | ins, del -> Some (p, Changed (ins, del))
  in
  (wdb, results, List.filter_map net added)

(* Every stratum is derived, continued from [prior] or reused from it,
   by what changed among the relations it reads: [changes] starts as the
   EDB's net change and gains each stratum's own as it is evaluated.
   Returns the result with the final [changes]. *)
let derive cache ~prior ~changes db (s : Stratify.t) =
  let changes = ref changes in
  let empty rules p = R.Relation.empty (idb_schema p (rules_for p rules)) in
  let from_empty ~recursive wdb rules =
    let seeds = List.map (fun r -> (Rule.head r, Rule.body r)) rules in
    let wdb, results, _ =
      eval_stratum cache ~recursive ~init:(empty rules) ~seeds ~seed_deltas:[]
        wdb rules
    in
    (wdb, results, List.map (fun (p, _) -> (p, Replaced)) results)
  in
  let result =
    run_strata db s ~stratum:(fun ~recursive wdb rules ->
        let preds = stratum_preds rules in
        let prior_extents =
          Option.bind prior (fun prior ->
              let exts = List.map (R.Database.relation prior) preds in
              if List.mem None exts then None
              else Some (prior, List.combine preds (List.map Option.get exts)))
        in
        let changed =
          List.filter_map
            (fun (p, positive) ->
              Option.map (fun c -> (p, positive, c)) (Smap.find_opt p !changes))
            (List.sort_uniq compare (lower_reads rules))
        in
        let continued = function
          | p, true, Changed (ins, del) when del = [] || not recursive ->
              Some (p, (ins, del))
          | _ -> None
        in
        let wdb, results, net =
          match prior_extents with
          | None -> from_empty ~recursive wdb rules
          | Some (_, exts) when changed = [] ->
              ( List.fold_left
                  (fun wdb (_, rel) -> R.Database.add_relation wdb rel)
                  wdb exts,
                exts,
                [] )
          | Some (prior, exts)
            when List.for_all (fun c -> continued c <> None) changed ->
              continue_stratum cache ~recursive ~prior ~exts
                ~changed:(List.filter_map continued changed)
                wdb rules
          | Some _ ->
              Metrics.(record Key.datalog_rederived_strata);
              from_empty ~recursive wdb rules
        in
        List.iter (fun (p, c) -> changes := Smap.add p c !changes) net;
        (wdb, results))
  in
  (result, !changes)

let run ?cache db s =
  let cache = resolve_cache cache in
  Metrics.record_time "datalog_fixpoint" (fun () ->
      Metrics.(record Key.datalog_scratch_derivations);
      fst (derive cache ~prior:None ~changes:Smap.empty db s))

let continue_gen ?cache ~prior ~changes db s =
  let changes =
    List.fold_left
      (fun acc (rel, _) ->
        Smap.add rel
          (Changed (R.Delta.inserted changes rel, R.Delta.deleted changes rel))
          acc)
      Smap.empty (R.Delta.changes changes)
  in
  Metrics.record_time "datalog_fixpoint" (fun () ->
      Metrics.(record Key.datalog_continued_derivations);
      derive (resolve_cache cache) ~prior:(Some prior) ~changes db s)

let continue ?cache ~prior ~changes db s =
  fst (continue_gen ?cache ~prior ~changes db s)

(* A re-derived stratum's change is the difference of its extents. *)
let continue_delta ?cache ~prior ~changes db (s : Stratify.t) =
  let result, changes = continue_gen ?cache ~prior ~changes db s in
  let change p =
    match Smap.find_opt p changes with
    | None -> ([], [])
    | Some (Changed (ins, del)) -> (ins, del)
    | Some Replaced ->
        let now = R.Database.relation_exn result p in
        Option.fold ~none:(R.Relation.tuples now, [])
          ~some:(fun before -> R.Relation.diff before now)
          (R.Database.relation prior p)
  in
  ( result,
    List.fold_left
      (fun d p ->
        let ins, del = change p in
        let d = List.fold_left (fun d t -> R.Delta.delete d p t) d del in
        List.fold_left (fun d t -> R.Delta.insert d p t) d ins)
      R.Delta.empty s.idb )
