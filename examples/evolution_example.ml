(* Citation evolution (paper section 3), in both of the paper's senses:

   1. the DATA evolves: a registered query's citations are maintained
      incrementally under inserts/deletes instead of being recomputed;
   2. the VIEWS evolve: the database owner retires the per-family
      citation view V1 at a later version, and citations made before
      and after that epoch resolve against the view set of their own
      time. *)

module C = Dc_citation
module R = Dc_relational

let () =
  (* --- 1. data evolution, maintained incrementally ----------------- *)
  let db = Dc_gtopdb.Paper_views.example_database () in
  let engine =
    C.Engine.create ~selection:`All
      ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
      db Dc_gtopdb.Paper_views.all
  in
  let reg = C.Incremental.register engine Dc_gtopdb.Paper_views.query_q in
  Format.printf "=== Registered query ===@.%a@.@." Dc_cq.Query.pp
    (C.Incremental.query reg);
  Format.printf "initial tuples:@.";
  List.iter
    (fun (tc : C.Engine.tuple_citation) ->
      Format.printf "  %a : %a@." R.Tuple.pp tc.tuple C.Cite_expr.pp tc.expr)
    (C.Incremental.to_result reg).tuples;

  (* a third Calcitonin family appears *)
  let delta =
    R.Delta.empty
    |> (fun d ->
         R.Delta.insert d "Family"
           (R.Tuple.make [ R.Value.Int 13; R.Value.Str "Calcitonin"; R.Value.Str "C3" ]))
    |> fun d ->
    R.Delta.insert d "FamilyIntro"
      (R.Tuple.make [ R.Value.Int 13; R.Value.Str "3rd" ])
  in
  let reg = C.Incremental.apply_delta reg delta in
  Format.printf
    "@.after inserting family 13 ('Calcitonin'), %d tuple(s) changed \
     rows:@."
    (C.Incremental.affected_last reg);
  List.iter
    (fun (tc : C.Engine.tuple_citation) ->
      Format.printf "  %a : %a@." R.Tuple.pp tc.tuple C.Cite_expr.pp tc.expr)
    (C.Incremental.to_result reg).tuples;

  (* --- 2. view evolution through the registry ---------------------- *)
  Format.printf "@.=== View evolution ===@.";
  let store = R.Version_store.create db in
  let registry = Dc_repro.View_registry.create Dc_gtopdb.Paper_views.all in

  (* citation made in the first era, at the version the store holds *)
  let cite_at version =
    Dc_repro.View_registry.cite_at ~store registry ~version
      Dc_gtopdb.Paper_views.query_q
  in
  let old_version = R.Version_store.head store in
  (match cite_at old_version with
  | Error e -> Format.printf "error: %s@." e
  | Ok old_citation ->
      Format.printf "citation at version %d (V1 era): %a@." old_version
        C.Cite_expr.pp old_citation.result_expr);

  (* the database moves on, and at version 1 the owner retires V1 *)
  let store, v1 =
    R.Version_store.commit_delta store
      (R.Delta.insert R.Delta.empty "Committee"
         (R.Tuple.make [ R.Value.Int 12; R.Value.Str "New Curator" ]))
  in
  let registry =
    Dc_repro.View_registry.update registry ~from_version:v1
      [ Dc_gtopdb.Paper_views.v2; Dc_gtopdb.Paper_views.v3 ]
  in
  Format.printf "@.epochs now:@.";
  List.iter
    (fun (from, names) ->
      Format.printf "  from v%d: %s@." from (String.concat ", " names))
    (Dc_repro.View_registry.epochs registry);

  (* a fresh citation only sees the new era's views *)
  (match
     Dc_repro.View_registry.cite_at ~selection:`All ~store registry ~version:v1
       Dc_gtopdb.Paper_views.query_q
   with
  | Error e -> Format.printf "error: %s@." e
  | Ok result ->
      Format.printf "@.citation at version %d (V2/V3 era): %a@." v1
        C.Cite_expr.pp result.result_expr;
      Format.printf "rewritings available: %d (was 2 in the V1 era)@."
        (List.length result.rewritings));

  (* while the old citation still re-cites with its own era's views *)
  match cite_at old_version with
  | Error e -> Format.printf "error: %s@." e
  | Ok old_citation ->
      Format.printf "@.old citation still resolves to %d tuples@."
        (List.length old_citation.tuples)
