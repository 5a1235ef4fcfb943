(* A capstone scenario: running a small "database portal" with
   citations, the way GtoPdb operates (paper section 1).

   - a generated database of 200 drug-target families;
   - the owner installs the curated catalogue views plus generated
     defaults, checks coverage of the expected workload, and lets the
     system suggest views for whatever stays uncovered;
   - visitors browse web pages (each rendered with its citation),
     run ad-hoc queries (each answered with a citation and a
     bibliography key), and the whole session's bibliography is printed;
   - the database is stored versioned on disk, so every citation stays
     resolvable after the data moves on. *)

module C = Dc_citation
module R = Dc_relational

let section title = Format.printf "@.=== %s ===@." title

let () =
  let db =
    Dc_gtopdb.Generator.generate ~seed:2026
      ~config:(Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config ~families:200)
      ()
  in
  section "1. Install views: curated catalogue + generated defaults";
  let curated = Dc_repro.Views_catalog.all in
  (* generated defaults for the one relation the curated catalogue
     ignores *)
  let defaults =
    C.Defaults.views_for_database ~blurb:"GtoPdb synthetic release 2026.1"
      (R.Database.create_relation R.Database.empty
         Dc_gtopdb.Schema_def.contributor)
  in
  let views = curated @ defaults in
  Format.printf "installed %d views: %s@." (List.length views)
    (String.concat ", " (List.map C.Citation_view.name views));

  section "2. Coverage of the expected workload";
  let workload = Dc_repro.Workload.generate ~seed:7 ~count:30 in
  let vset = C.Citation_view.Set.view_set (C.Citation_view.Set.of_list views) in
  let report = C.Coverage.analyze ~db vset workload in
  Format.printf "%d/%d queries covered, %d ambiguous@." report.covered
    report.total report.ambiguous;
  let suggestions = Dc_repro.View_selection.suggest_views vset workload in
  Format.printf "suggested additional views for full coverage: %d@."
    (List.length suggestions);

  section "3. A visitor browses a page";
  let engine = C.Engine.create db views in
  (match C.Page.render engine ~view:"V1" ~params:[ ("FID", R.Value.Int 7) ] with
  | Error e -> Format.printf "page error: %s@." e
  | Ok page -> print_endline (C.Page.to_text page));

  section "4. Ad-hoc queries with bibliography";
  let bib = C.Bibliography.create () in
  List.iter
    (fun src ->
      match C.Engine.cite_string engine src with
      | Error e -> Format.printf "error: %s@." e
      | Ok result ->
          let key = C.Bibliography.add_result bib result in
          Format.printf "%s@.  -> %d answers, cite as %s@." src
            (List.length result.tuples) key)
    [
      "Q1(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
      "Q2(FName,TName) :- Family(FID,FName,Desc), TargetFamily(TID,FID), \
       Target(TID,TName,TType)";
    ];
  Format.printf "@.--- bibliography ---@.%s@." (C.Bibliography.render bib);

  section "5. Durable fixity";
  let dir = Filename.temp_file "datacite_portal" "" in
  Sys.remove dir;
  let open_store ?db () =
    C.Versioned_engine.open_durable ?db ~dir (fun db ->
        C.Engine.create db views)
  in
  let rm_store () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:rm_store @@ fun () ->
  match open_store ~db () with
  | Error e -> Format.printf "store error: %s@." e
  | Ok (ve, st, _) ->
      let vc =
        Result.get_ok (C.Versioned_engine.cite ve Dc_gtopdb.Paper_views.query_q)
      in
      Format.printf "cited %d tuples at version %d, digest %s@."
        (List.length vc.result.tuples) vc.version vc.digest;
      (* the database moves on... *)
      let delta =
        R.Delta.insert R.Delta.empty "Family"
          (R.Tuple.make
             [ R.Value.Int 9999; R.Value.Str "Brand-new family"; R.Value.Str "new" ])
      in
      ignore (Result.get_ok (C.Versioned_engine.commit_delta ve delta));
      Dc_storage.Store.close st;
      (* ...and a later process reopens the store from disk *)
      let ve, st, _ = Result.get_ok (open_store ()) in
      Format.printf "after commit and reopen, head is version %d@."
        (C.Versioned_engine.head ve);
      Format.printf "old citation still verifies: %b@."
        (C.Versioned_engine.verify ve vc.version vc.digest = Ok true);
      Dc_storage.Store.close st
