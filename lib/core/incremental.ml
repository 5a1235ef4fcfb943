module R = Dc_relational
module Cq = Dc_cq

let log_src =
  Logs.Src.create "datacite.incremental" ~doc:"Incremental citation maintenance"

module Log = (val Logs.src_log log_src)

type t = {
  engine : Engine.t;
  query : Cq.Query.t;
  meta : Engine.evaluation;  (** the cite's metadata; its runs are the rows *)
  heads : (string * Compute.template) list;
      (** each evaluated template's rule head, with the template *)
  program : Cq.Stratify.t;
  derived : R.Database.t;  (** [program]'s derivation: the rows *)
  eval_cache : Cq.Eval.cache;
  affected_last : int;
}

let engine reg = reg.engine
let query reg = reg.query
let affected_last reg = reg.affected_last

(* A row of a template's rule: its answer, then its projection on the
   template's [n] variables. *)
let split n row =
  let width = R.Tuple.arity row - n in
  ( R.Tuple.of_array (Array.init width (R.Tuple.get row)),
    Array.init n (fun j -> R.Tuple.get row (width + j)) )

(* A rule's rows in scan order, grouped by answer, are {!Compute.fold}'s
   answers: both sort by answer, then projection.  Each answer is handed
   on when the next row starts another. *)
let answers_of derived p t : Engine.answers =
 fun f ->
  let rows = R.Relation.scan (R.Database.relation_exn derived p) in
  let n = List.length (Compute.vars t) in
  let rec group answer ps i =
    if i = Array.length rows then f answer (List.rev ps)
    else
      let answer', proj = split n rows.(i) in
      if R.Tuple.equal answer answer' then group answer (proj :: ps) (i + 1)
      else begin
        f answer (List.rev ps);
        group answer' [ proj ] (i + 1)
      end
  in
  if Array.length rows > 0 then
    let answer, proj = split n rows.(0) in
    group answer [ proj ] 1

let evaluation reg =
  {
    reg.meta with
    runs = List.map (fun (p, t) -> (t, answers_of reg.derived p t)) reg.heads;
  }

let to_result reg = Engine.result_of reg.engine reg.query (evaluation reg)

let register eng q =
  let ev = Engine.evaluate eng q in
  (* '#' is no identifier character: no relation or predicate takes the
     name of a rule head.  A vacuous template has no rule and no answer. *)
  let heads, rules =
    List.split
      (List.filter_map Fun.id
         (List.mapi
            (fun i (t, _) ->
              let p = Printf.sprintf "registration#%d" i in
              Option.map (fun r -> ((p, t), r)) (Compute.rule p t))
            ev.runs))
  in
  let reads =
    List.concat_map (fun r -> List.map fst (Cq.Rule.body_preds r)) rules
    @ List.concat_map
        (fun cv ->
          List.concat_map Cq.Query.predicates
            (Citation_view.citation_queries cv))
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
    meta = { ev with runs = [] };
    heads;
    program;
    derived =
      Cq.Seminaive.continue ~cache:eval_cache ~prior ~changes:R.Delta.empty
        (Engine.database eng) program;
    eval_cache;
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
  (* the rows [f] picks from the change, split *)
  let rows f =
    List.concat_map
      (fun (p, t) ->
        let n = List.length (Compute.vars t) in
        List.map (fun row -> (t, split n row)) (f derived_changes p))
      reg.heads
  in
  let affected =
    rows (fun d p -> R.Delta.inserted d p @ R.Delta.deleted d p)
    |> List.map (fun (_, (answer, _)) -> answer)
    |> List.sort_uniq R.Tuple.compare |> List.length
  in
  (* Every leaf an inserted row cites resolves now, against the new
     data: a delta whose new citations cannot be computed fails here,
     where a commit can still refuse it, not at every later read. *)
  let engine = Engine.refresh reg.engine new_base in
  List.iter
    (fun (t, (_, proj)) ->
      List.iter
        (fun l -> ignore (Engine.resolve_leaf engine l))
        (Cite_expr.leaves (Compute.rewriting_expr t [ proj ])))
    (rows R.Delta.inserted);
  Log.debug (fun m ->
      m "apply_delta: %d changes, %d answer(s) changed rows"
        (R.Delta.size delta) affected);
  { reg with engine; derived; affected_last = affected }
