(* Fixity (paper §3): a citation must bring back the data as seen when
   it was cited.  We cite a query at version 0, evolve the database
   (rename a family, delete another), and show that re-citing at the
   cited version still returns the original data, and that the version
   still hashes to the citation's digest, while citing afresh at the
   head returns the evolved answer. *)

module R = Dc_relational
module C = Dc_citation
module V = C.Versioned_engine

let tuples (c : V.cited) =
  List.map (fun (tc : C.Engine.tuple_citation) -> tc.tuple) c.result.tuples

let cite ve version query =
  match V.cite_at ve version query with
  | Ok c -> c
  | Error e -> failwith e

let () =
  let db = Dc_gtopdb.Paper_views.example_database () in
  let views = Dc_gtopdb.Paper_views.all in
  let query = Dc_gtopdb.Paper_views.query_q in
  let ve = V.of_engine @@ C.Engine.create db views in

  (* Cite at the initial version. *)
  let cited = cite ve (V.head ve) query in
  Format.printf "=== Citation at version %d ===@." cited.version;
  Format.printf "@[<v>cited at version %d%a@ query: %s@ formal: %a@ %a@ digest: %s@]@.@."
    cited.version
    (fun ppf -> function
      | None -> ()
      | Some ts -> Format.fprintf ppf " (time %d)" ts)
    cited.timestamp
    (Dc_cq.Query.to_string cited.result.query)
    C.Cite_expr.pp cited.result.result_expr C.Citation.Set.pp
    cited.result.result_citations cited.digest;

  (* The database evolves: family 21 is renamed, family 11 disappears. *)
  let delta =
    R.Delta.empty
    |> (fun d ->
         R.Delta.delete d "Family"
           (R.Tuple.make
              [ R.Value.Int 21; R.Value.Str "Dopamine receptors"; R.Value.Str "D1" ]))
    |> (fun d ->
         R.Delta.insert d "Family"
           (R.Tuple.make
              [ R.Value.Int 21; R.Value.Str "Dopamine receptors (renamed)"; R.Value.Str "D1" ]))
    |> (fun d ->
         R.Delta.delete d "Family"
           (R.Tuple.make [ R.Value.Int 11; R.Value.Str "Calcitonin"; R.Value.Str "C1" ]))
  in
  let v1 = Result.get_ok (V.commit_delta ve delta) in
  Format.printf "Database evolved to version %d.@.@." v1;

  (* Re-citing at the cited version returns the data as cited... *)
  let resolved = cite ve cited.version query in
  Format.printf "=== Resolved at cited version %d ===@." cited.version;
  List.iter (fun t -> Format.printf "  %a@." R.Tuple.pp t) (tuples resolved);
  Format.printf "fixity verified: %b@.@."
    (V.verify ve cited.version cited.digest = Ok true
    && List.equal R.Tuple.equal (tuples resolved) (tuples cited));

  (* ...whereas citing afresh sees the evolution. *)
  let fresh = cite ve (V.head ve) query in
  Format.printf "=== Fresh citation at version %d ===@." fresh.version;
  List.iter (fun t -> Format.printf "  %a@." R.Tuple.pp t) (tuples fresh);
  Format.printf "@.Old and new answers differ: %b@."
    (not (List.equal R.Tuple.equal (tuples cited) (tuples fresh)))
