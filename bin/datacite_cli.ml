(* datacite: command-line front end.

   Subcommands:
     cite      load a CSV database + view spec, cite a query
     coverage  analyze view coverage of a workload file
     demo      run the paper's worked example
     rewrite   show the minimal equivalent rewritings of a query
     page      render a web-page view with its citation
     store     a durable versioned store, in the data directory format
               of datacite_server --data-dir *)

module C = Dc_citation
module Cq = Dc_cq
module R = Dc_relational
open Cmdliner

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let load_views path =
  match C.Spec.parse_views (read_file path) with
  | Ok vs -> vs
  | Error e ->
      prerr_endline ("view spec error: " ^ e);
      exit 1

let load_db dir =
  match C.Spec.load_database ~dir with
  | Ok db -> db
  | Error e ->
      prerr_endline ("database error: " ^ e);
      exit 1

(* Common arguments *)

let data_arg =
  let doc = "Directory with schema.spec and <Relation>.csv files." in
  Arg.(required & opt (some dir) None & info [ "data" ] ~docv:"DIR" ~doc)

let views_arg =
  let doc = "Citation view specification file." in
  Arg.(required & opt (some file) None & info [ "views" ] ~docv:"FILE" ~doc)

let query_arg =
  let doc = "Conjunctive query, e.g. 'Q(X) :- R(X,Y)'." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let format_arg =
  let doc = "Output format: human, bibtex, ris, xml or json." in
  Arg.(value & opt string "human" & info [ "format"; "f" ] ~docv:"FMT" ~doc)

let policy_arg =
  let doc =
    "Rewriting policy (+R): min-size (default), keep-all or first."
  in
  Arg.(value & opt string "min-size" & info [ "rewriting-policy" ] ~doc)

let combiner_arg name doc =
  Arg.(value & opt string "union" & info [ name ] ~doc)

let partial_arg =
  let doc = "Allow partial rewritings (uncovered subgoals stay uncited)." in
  Arg.(value & opt bool false & info [ "partial" ] ~doc)

let parse_combiner name = function
  | "union" -> C.Policy.Union
  | "join" -> C.Policy.Join
  | other ->
      prerr_endline
        (Printf.sprintf "unknown %s combiner %S (use union or join)" name other);
      exit 1

let build_policy joint alt agg rpolicy =
  let alt_r =
    match rpolicy with
    | "min-size" -> C.Policy.Min_size
    | "keep-all" -> C.Policy.Keep_all
    | "first" -> C.Policy.First
    | other ->
        prerr_endline (Printf.sprintf "unknown rewriting policy %S" other);
        exit 1
  in
  C.Policy.make ~joint:(parse_combiner "joint" joint)
    ~alt:(parse_combiner "alt" alt) ~agg:(parse_combiner "agg" agg) ~alt_r ()

let parse_format f =
  match C.Fmt_citation.format_of_string f with
  | Ok fmt -> fmt
  | Error e ->
      prerr_endline e;
      exit 1

(* cite *)

let stats_arg =
  let doc =
    "Dump engine metrics (cache hit rates, rewriting counters, timers) to \
     stderr after the result."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let cite_cmd =
  let run data views query format joint alt agg rpolicy partial sql stats =
    let db = load_db data in
    let cvs = load_views views in
    let policy = build_policy joint alt agg rpolicy in
    let selection =
      if rpolicy = "min-size" then `Min_estimated_size else `All
    in
    let engine = C.Engine.create ~policy ~selection ~partial db cvs in
    let parsed =
      if sql then
        let schemas =
          List.map R.Relation.schema (R.Database.relations db)
        in
        Result.map (C.Engine.cite engine) (Cq.Sql.compile ~schemas query)
      else C.Engine.cite_string engine query
    in
    match parsed with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok result ->
        Format.printf "rewritings: %d (evaluated %d)@."
          (List.length result.rewritings)
          (List.length result.selected);
        List.iter
          (fun (tc : C.Engine.tuple_citation) ->
            Format.printf "%a : %a@." R.Tuple.pp tc.tuple C.Cite_expr.pp
              tc.expr)
          result.tuples;
        print_endline
          (C.Fmt_citation.render_result (parse_format format) ~query
             result.result_citations);
        if stats then
          Format.eprintf "%a@?" C.Metrics.pp (C.Engine.metrics engine)
  in
  let term =
    Term.(
      const run $ data_arg $ views_arg $ query_arg $ format_arg
      $ combiner_arg "joint" "Interpretation of · (union or join)."
      $ combiner_arg "alt" "Interpretation of + (union or join)."
      $ combiner_arg "agg" "Interpretation of Agg (union or join)."
      $ policy_arg $ partial_arg
      $ Arg.(
          value & flag
          & info [ "sql" ]
              ~doc:"Interpret QUERY as SQL (SELECT-FROM-WHERE) instead of Datalog.")
      $ stats_arg)
  in
  Cmd.v (Cmd.info "cite" ~doc:"Generate the citation for a query.") term

(* rewrite *)

let rewrite_cmd =
  let run views query partial under_keys data =
    let cvs = load_views views in
    let vset = C.Citation_view.Set.view_set (C.Citation_view.Set.of_list cvs) in
    match Cq.Parser.parse_query query with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok q ->
        let rewritings, stats =
          if under_keys then begin
            match data with
            | None ->
                prerr_endline "--under-keys requires --data for the schema keys";
                exit 1
            | Some dir ->
                let db = load_db dir in
                let deps =
                  List.concat_map
                    (fun rel ->
                      Cq.Dependency.key_of_schema (R.Relation.schema rel))
                    (R.Database.relations db)
                in
                Dc_rewriting.Rewrite.rewritings_under_deps ~deps vset q
          end
          else
            let o = Dc_rewriting.Rewrite.search ~partial vset q in
            (o.Dc_rewriting.Rewrite.queries, o.Dc_rewriting.Rewrite.stats)
        in
        Format.printf "candidates: %d, verified: %d, kept: %d@."
          stats.candidates stats.verified stats.kept;
        List.iter (fun r -> Format.printf "%a@." Cq.Query.pp r) rewritings
  in
  let under_keys_arg =
    let doc = "Rewrite modulo the key dependencies declared in schema.spec." in
    Arg.(value & flag & info [ "under-keys" ] ~doc)
  in
  let opt_data_arg =
    let doc = "Data directory (for --under-keys)." in
    Arg.(value & opt (some dir) None & info [ "data" ] ~docv:"DIR" ~doc)
  in
  let term =
    Term.(
      const run $ views_arg $ query_arg $ partial_arg $ under_keys_arg
      $ opt_data_arg)
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Show the minimal equivalent rewritings.")
    term

(* page *)

let page_cmd =
  let run data views view params version =
    let db = load_db data in
    let cvs = load_views views in
    let engine = C.Engine.create db cvs in
    let parse_param s =
      match String.index_opt s '=' with
      | None ->
          prerr_endline (Printf.sprintf "bad parameter %S (want NAME=VALUE)" s);
          exit 1
      | Some i ->
          let name = String.sub s 0 i in
          let value = String.sub s (i + 1) (String.length s - i - 1) in
          let v =
            match int_of_string_opt value with
            | Some n -> R.Value.Int n
            | None -> R.Value.Str value
          in
          (name, v)
    in
    let params = List.map parse_param params in
    match C.Page.render ?version engine ~view ~params with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok page -> print_endline (C.Page.to_text page)
  in
  let view_arg =
    let doc = "View name (the web page to render)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"VIEW" ~doc)
  in
  let params_arg =
    let doc = "View parameter, NAME=VALUE; repeatable." in
    Arg.(value & opt_all string [] & info [ "param"; "p" ] ~doc)
  in
  let version_arg =
    let doc = "Version stamp to print on the page." in
    Arg.(value & opt (some int) None & info [ "at-version" ] ~doc)
  in
  let term =
    Term.(const run $ data_arg $ views_arg $ view_arg $ params_arg $ version_arg)
  in
  Cmd.v
    (Cmd.info "page" ~doc:"Render a web-page view with its citation.")
    term

(* coverage *)

let coverage_cmd =
  let run data views workload_file =
    let db = load_db data in
    let cvs = load_views views in
    let vset = C.Citation_view.Set.view_set (C.Citation_view.Set.of_list cvs) in
    match Cq.Parser.parse_program (read_file workload_file) with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok workload ->
        let report = C.Coverage.analyze ~db vset workload in
        Format.printf "%a@." C.Coverage.pp_report report
  in
  let workload_arg =
    let doc = "File of ';'-separated conjunctive queries." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"WORKLOAD" ~doc)
  in
  let term = Term.(const run $ data_arg $ views_arg $ workload_arg) in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Coverage of a workload by the citation views.")
    term

(* store: durable fixity, in the data directory format of
   datacite_server --data-dir *)

let store_dir_arg =
  let doc = "Data directory, shared with datacite_server --data-dir." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc)

let fail e =
  prerr_endline e;
  exit 1

(* Stores written before the CLI shared the server's data directory: a
   CSV base plus one delta file per version.  Nothing reads them any
   more, so say so instead of "no store found" (or initializing a
   second store beside the old one). *)
let refuse_retired_layout dir =
  if Sys.file_exists (Filename.concat dir "base/schema.spec") then
    fail
      (Printf.sprintf
         "%s: holds a store in the retired format (base/ CSV files plus \
          deltas/*.delta), which this version cannot open; initialize a \
          new store in another directory"
         dir)

(* Open the store in [dir] with [views] (see
   [Versioned_engine.open_durable] for [fresh] and [db]), run [f], and
   close the store before reporting [f]'s error. *)
let with_store ?fresh ?db dir views f =
  refuse_retired_layout dir;
  match
    C.Versioned_engine.open_durable ?fresh ?db ~dir (fun db ->
        C.Engine.create db views)
  with
  | exception Invalid_argument e -> fail e
  | Error e -> fail e
  | Ok (ve, st, _) ->
      Result.iter_error fail
        (Fun.protect
           ~finally:(fun () -> Dc_storage.Store.close st)
           (fun () -> f ve))

let parse_query_or_fail query =
  match Cq.Parser.parse_query query with Ok q -> q | Error e -> fail e

let store_init_cmd =
  let run data store_dir =
    let db = load_db data in
    with_store ~fresh:true ~db store_dir [] (fun _ -> Ok ());
    Format.printf "initialized %s at version 0@." store_dir
  in
  let term = Term.(const run $ data_arg $ store_dir_arg) in
  Cmd.v
    (Cmd.info "init" ~doc:"Create a versioned store from a CSV database.")
    term

let store_commit_cmd =
  let run store_dir delta_file =
    with_store store_dir [] @@ fun ve ->
    let schemas =
      List.map R.Relation.schema
        (R.Database.relations
           (R.Version_store.head_db (C.Versioned_engine.store ve)))
    in
    Result.map
      (fun v -> Format.printf "committed version %d@." v)
      (Result.bind
         (R.Delta_wire.parse_typed ~schemas (read_file delta_file))
         (C.Versioned_engine.commit_delta ve))
  in
  let delta_arg =
    let doc =
      "Delta file: ';'-separated changes +Relation(v,...) or \
       -Relation(v,...)."
    in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DELTA" ~doc)
  in
  let term = Term.(const run $ store_dir_arg $ delta_arg) in
  Cmd.v (Cmd.info "commit" ~doc:"Apply a delta file as a new version.") term

let store_log_cmd =
  let run store_dir =
    with_store store_dir [] @@ fun ve ->
    let store = C.Versioned_engine.store ve in
    List.iter
      (fun v ->
        let db = R.Version_store.checkout_exn store v in
        Format.printf "v%d: %d tuples@." v (R.Database.total_tuples db))
      (C.Versioned_engine.versions ve);
    Ok ()
  in
  let term = Term.(const run $ store_dir_arg) in
  Cmd.v (Cmd.info "log" ~doc:"List the store's versions.") term

let store_query_arg =
  let doc = "Conjunctive query." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)

let store_cite_cmd =
  let run store_dir views query format =
    let cvs = load_views views in
    let q = parse_query_or_fail query in
    let format = parse_format format in
    with_store store_dir cvs @@ fun ve ->
    Result.map
      (fun (c : C.Versioned_engine.cited) ->
        Format.printf "cited at version %d@." c.version;
        List.iter
          (fun (tc : C.Engine.tuple_citation) ->
            Format.printf "%a@." R.Tuple.pp tc.tuple)
          c.result.tuples;
        Format.printf "formal: %a@." C.Cite_expr.pp c.result.result_expr;
        Format.printf "digest: %s@." c.digest;
        print_endline
          (C.Fmt_citation.render format c.result.result_citations))
      (C.Versioned_engine.cite ve q)
  in
  let term =
    Term.(const run $ store_dir_arg $ views_arg $ store_query_arg $ format_arg)
  in
  Cmd.v
    (Cmd.info "cite" ~doc:"Cite a query against the store's head version.")
    term

let store_resolve_cmd =
  let run store_dir views version query =
    let cvs = load_views views in
    let q = parse_query_or_fail query in
    with_store store_dir cvs @@ fun ve ->
    Result.map
      (fun (c : C.Versioned_engine.cited) ->
        Format.printf "answer as of version %d:@." version;
        List.iter
          (fun (tc : C.Engine.tuple_citation) ->
            Format.printf "%a@." R.Tuple.pp tc.tuple)
          c.result.tuples)
      (C.Versioned_engine.cite_at ve version q)
  in
  let version_arg =
    let doc = "Version to resolve at (--at N)." in
    Arg.(required & opt (some int) None & info [ "at" ] ~docv:"VERSION" ~doc)
  in
  let term =
    Term.(const run $ store_dir_arg $ views_arg $ version_arg $ store_query_arg)
  in
  Cmd.v
    (Cmd.info "resolve"
       ~doc:"Re-execute a cited query at a historical version (fixity).")
    term

let store_cmd =
  Cmd.group
    (Cmd.info "store" ~doc:"Durable versioned store (fixity).")
    [ store_init_cmd; store_commit_cmd; store_log_cmd; store_cite_cmd;
      store_resolve_cmd ]

(* demo *)

let demo_cmd =
  let run format =
    let db = Dc_gtopdb.Paper_views.example_database () in
    let engine = C.Engine.create db Dc_gtopdb.Paper_views.all in
    let result = C.Engine.cite engine Dc_gtopdb.Paper_views.query_q in
    Format.printf "query: %a@." Cq.Query.pp result.query;
    List.iter
      (fun (tc : C.Engine.tuple_citation) ->
        Format.printf "%a : %a@." R.Tuple.pp tc.tuple C.Cite_expr.pp tc.expr)
      result.tuples;
    print_endline
      (C.Fmt_citation.render (parse_format format) result.result_citations)
  in
  let term = Term.(const run $ format_arg) in
  Cmd.v (Cmd.info "demo" ~doc:"Run the paper's worked example.") term

let () =
  let info =
    Cmd.info "datacite" ~version:"1.0.0"
      ~doc:"Fine-grained data citation via citation views"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ cite_cmd; rewrite_cmd; coverage_cmd; page_cmd; store_cmd; demo_cmd ]))
