module R = Dc_relational
module Cq = Dc_cq
open Dc_citation

type state = {
  db : R.Database.t option;
  views : Citation_view.t list;
  program : Cq.Program.t option;
      (* Datalog program: its exports become citation views and its IDB
         predicates are materialized into the engine's derived layer *)
  pending_view : Cq.Query.t option;
  pending_cites : Cq.Query.t list;
  policy : Policy.t;
  selection : Engine.selection;
  bibliography : Bibliography.t;
  last : (Engine.t * Engine.result) option;
  engine : Engine.t option;
      (* cached across queries so repeated citations hit the engine's
         rewriting-plan cache; dropped whenever the database, views,
         policy or selection change *)
}

let initial =
  {
    db = None;
    views = [];
    program = None;
    pending_view = None;
    pending_cites = [];
    policy = Policy.default;
    selection = `Min_estimated_size;
    bibliography = Bibliography.create ();
    last = None;
    engine = None;
  }

let help_text =
  "commands:\n\
  \  load data <dir>      load a CSV database (schema.spec + *.csv)\n\
  \  load views <file>    load a view spec file\n\
  \  load program <file>  load a Datalog program (rules, export, cite)\n\
  \  defaults [blurb]     install generated default citation views\n\
  \  view <CQ>            begin a citation view definition\n\
  \  cite <CQ>            attach a citation query to the pending view\n\
  \  done                 finish the pending view\n\
  \  views                list installed citation views\n\
  \  policy k=v ...       joint|alt|agg=union|join, alt_r=min-size|keep-all|first\n\
  \  q <CQ>               cite a Datalog query\n\
  \  sql <SELECT ...>     cite a SQL query\n\
  \  why <v1> [v2 ...]    explain the last result's tuple (v1,...)\n\
  \  page <view> [k=v]    render a web-page view with its citation\n\
  \  bib                  show the bibliography of cited queries\n\
  \  :stats               engine metrics (cache hit rates, timers)\n\
  \  :serve               how to serve citations over TCP (datacite-server)\n\
  \  help                 this text"

let serve_text =
  "the shell is single-user; to serve citations over TCP run the daemon:\n\
  \  datacite-server --data <dir> --views <file> [--port 7421] [--workers 4]\n\
   it loads the same specs, keeps one warm engine, and answers\n\
   CITE / CITE_PARAM / STATS / HEALTH / QUIT as one-line JSON\n\
   (see README \"Running the server\"; datacite-bench-client load-tests it)"

(* finalize the pending view definition, if any *)
let flush_pending st =
  match st.pending_view with
  | None -> Ok st
  | Some view -> (
      match Citation_view.make ~view ~citations:(List.rev st.pending_cites) () with
      | Error e -> Error e
      | Ok cv ->
          Ok
            {
              st with
              views = st.views @ [ cv ];
              pending_view = None;
              pending_cites = [];
              engine = None;
            })

let with_db st f =
  match st.db with
  | None -> (st, "no database loaded (use: load data <dir>)")
  | Some db -> f db

(* Reuse the cached engine when nothing it depends on has changed —
   every command mutating db/views/policy/selection resets [engine] to
   [None] — so repeated queries keep its plan and leaf caches warm. *)
let build_engine st db =
  match st.engine with
  | Some engine -> Ok (st, engine)
  | None -> (
      try
        let engine =
          match st.program with
          | None ->
              Engine.create ~policy:st.policy ~selection:st.selection db
                st.views
          | Some program ->
              Engine.of_program ~policy:st.policy ~selection:st.selection
                ~views:st.views db program
        in
        Ok ({ st with engine = Some engine }, engine)
      with Invalid_argument e -> Error e)

let show_result st (result : Engine.result) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "rewritings: %d (evaluated %d)%s\n"
       (List.length result.rewritings)
       (List.length result.selected)
       (if result.complete then "" else " [best-effort: answer may be partial]"));
  List.iter
    (fun (tc : Engine.tuple_citation) ->
      Buffer.add_string buf
        (Format.asprintf "%a : %a\n" R.Tuple.pp tc.tuple Cite_expr.pp tc.expr))
    result.tuples;
  let key = Bibliography.add_result st.bibliography result in
  Buffer.add_string buf
    (Fmt_citation.render Fmt_citation.Human result.result_citations);
  Buffer.add_string buf (Printf.sprintf "\n-> bibliography entry %s" key);
  Buffer.contents buf

let cite_query st q =
  match flush_pending st with
  | Error e -> (st, e)
  | Ok st ->
      with_db st (fun db ->
          match build_engine st db with
          | Error e -> (st, e)
          | Ok (st, engine) -> (
              try
                let result = Engine.cite engine q in
                ( { st with last = Some (engine, result) },
                  show_result st result )
              with Cq.Eval.Unknown_relation r ->
                (st, Printf.sprintf "unknown relation %s" r)))

let parse_policy_setting st setting =
  match String.split_on_char '=' setting with
  | [ key; value ] -> (
      let combiner () =
        match value with
        | "union" -> Ok Policy.Union
        | "join" -> Ok Policy.Join
        | _ -> Error (Printf.sprintf "unknown combiner %s" value)
      in
      match key with
      | "joint" ->
          Result.map (fun c -> { st with policy = { st.policy with joint = c } }) (combiner ())
      | "alt" ->
          Result.map (fun c -> { st with policy = { st.policy with alt = c } }) (combiner ())
      | "agg" ->
          Result.map (fun c -> { st with policy = { st.policy with agg = c } }) (combiner ())
      | "alt_r" | "+R" -> (
          match value with
          | "min-size" ->
              Ok { st with policy = { st.policy with alt_r = Policy.Min_size };
                           selection = `Min_estimated_size }
          | "keep-all" ->
              Ok { st with policy = { st.policy with alt_r = Policy.Keep_all };
                           selection = `All }
          | "first" ->
              Ok { st with policy = { st.policy with alt_r = Policy.First };
                           selection = `All }
          | _ -> Error (Printf.sprintf "unknown +R policy %s" value))
      | _ -> Error (Printf.sprintf "unknown policy key %s" key))
  | _ -> Error (Printf.sprintf "expected key=value, got %s" setting)

let split_first line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line i (String.length line - i)) )

let parse_kv s =
  match String.index_opt s '=' with
  | None -> None
  | Some i ->
      let name = String.sub s 0 i in
      let value = String.sub s (i + 1) (String.length s - i - 1) in
      let v =
        match int_of_string_opt value with
        | Some n -> R.Value.Int n
        | None -> R.Value.Str value
      in
      Some (name, v)

let eval st line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then (st, "")
  else
    let cmd, rest = split_first line in
    match String.lowercase_ascii cmd with
    | "help" -> (st, help_text)
    | "load" -> (
        let sub, arg = split_first rest in
        match String.lowercase_ascii sub with
        | "data" -> (
            match Spec.load_database ~dir:arg with
            | Ok db ->
                ( { st with db = Some db; engine = None },
                  Printf.sprintf "loaded %d relations, %d tuples"
                    (List.length (R.Database.relation_names db))
                    (R.Database.total_tuples db) )
            | Error e -> (st, e))
        | "views" -> (
            if not (Sys.file_exists arg) then (st, "no such file: " ^ arg)
            else
              let ic = open_in arg in
              let contents = really_input_string ic (in_channel_length ic) in
              close_in ic;
              match Spec.parse_views contents with
              | Ok vs ->
                  ( { st with views = st.views @ vs; engine = None },
                    Printf.sprintf "loaded %d views" (List.length vs) )
              | Error e -> (st, e))
        | "program" -> (
            if not (Sys.file_exists arg) then (st, "no such file: " ^ arg)
            else
              let ic = open_in arg in
              let contents = really_input_string ic (in_channel_length ic) in
              close_in ic;
              match Cq.Program.parse contents with
              | Ok p ->
                  ( { st with program = Some p; engine = None },
                    Printf.sprintf
                      "loaded program: %d rules in %d strata, %d derived \
                       predicate(s)%s, %d export(s)"
                      (List.length (Cq.Program.rules p))
                      (List.length (Cq.Program.strata p))
                      (List.length (Cq.Program.idb_preds p))
                      (match Cq.Program.recursive_preds p with
                      | [] -> ""
                      | rs ->
                          Printf.sprintf " (recursive: %s)"
                            (String.concat ", " rs))
                      (List.length (Cq.Program.exports p)) )
              | Error e -> (st, e))
        | _ -> (st, "usage: load data <dir> | load views <file> | load program <file>"))
    | "defaults" ->
        with_db st (fun db ->
            let blurb = if rest = "" then "this database" else rest in
            let vs = Defaults.views_for_database ~blurb db in
            ( { st with views = st.views @ vs; engine = None },
              Printf.sprintf "installed %d default views: %s" (List.length vs)
                (String.concat ", " (List.map Citation_view.name vs)) ))
    | "view" -> (
        match flush_pending st with
        | Error e -> (st, e)
        | Ok st -> (
            match Cq.Parser.parse_query rest with
            | Ok q ->
                ( { st with pending_view = Some q; pending_cites = [] },
                  Printf.sprintf "view %s pending; add 'cite' queries, then 'done'"
                    (Cq.Query.name q) )
            | Error e -> (st, e)))
    | "cite" -> (
        match st.pending_view with
        | None -> (st, "no pending view (start with: view <CQ>)")
        | Some _ -> (
            match Cq.Parser.parse_query rest with
            | Ok q ->
                ( { st with pending_cites = q :: st.pending_cites },
                  Printf.sprintf "citation query %s attached" (Cq.Query.name q) )
            | Error e -> (st, e)))
    | "done" -> (
        match flush_pending st with
        | Error e -> (st, e)
        | Ok st' ->
            if st'.views == st.views && st.pending_view = None then
              (st', "nothing pending")
            else
              ( st',
                Printf.sprintf "views installed: %s"
                  (String.concat ", " (List.map Citation_view.name st'.views)) ))
    | "views" -> (
        match flush_pending st with
        | Error e -> (st, e)
        | Ok st ->
            ( st,
              if st.views = [] then "no views installed"
              else String.concat ", " (List.map Citation_view.name st.views) ))
    | "policy" ->
        if rest = "" then (st, Policy.to_string st.policy)
        else
          let settings = String.split_on_char ' ' rest in
          let result =
            List.fold_left
              (fun acc s ->
                match acc with
                | Error _ -> acc
                | Ok st -> parse_policy_setting st (String.trim s))
              (Ok st)
              (List.filter (fun s -> String.trim s <> "") settings)
          in
          (match result with
          | Ok st' ->
              ( { st' with engine = None },
                "policy: " ^ Policy.to_string st'.policy )
          | Error e -> (st, e))
    | "q" -> (
        match Cq.Parser.parse_query rest with
        | Ok q -> cite_query st q
        | Error e -> (st, e))
    | "sql" ->
        with_db st (fun db ->
            let schemas = List.map R.Relation.schema (R.Database.relations db) in
            match Cq.Sql.compile ~schemas rest with
            | Ok q -> cite_query st q
            | Error e -> (st, e))
    | "page" -> (
        match flush_pending st with
        | Error e -> (st, e)
        | Ok st ->
            with_db st (fun db ->
                match build_engine st db with
                | Error e -> (st, e)
                | Ok (st, engine) -> (
                    let view, kvs = split_first rest in
                    let params =
                      List.filter_map parse_kv (String.split_on_char ' ' kvs)
                    in
                    match Page.render engine ~view ~params with
                    | Ok page -> (st, Page.to_text page)
                    | Error e -> (st, e))))
    | "why" -> (
        match st.last with
        | None -> (st, "no query cited yet")
        | Some (engine, result) ->
            let values =
              String.split_on_char ' ' rest
              |> List.filter (fun s -> String.trim s <> "")
              |> List.map (fun s ->
                     match int_of_string_opt s with
                     | Some n -> R.Value.Int n
                     | None -> R.Value.Str s)
            in
            if values = [] then (st, "usage: why <v1> [v2 ...]")
            else (st, Explain.render engine result (R.Tuple.make values)))
    | "bib" ->
        ( st,
          if Bibliography.entries st.bibliography = [] then "bibliography empty"
          else Bibliography.render st.bibliography )
    | "stats" | ":stats" ->
        let m =
          match st.engine with
          | Some engine -> Engine.metrics engine
          | None -> Metrics.default
        in
        (st, String.trim (Format.asprintf "%a" Metrics.pp m))
    | "serve" | ":serve" -> (st, serve_text)
    | other -> (st, Printf.sprintf "unknown command %s (try: help)" other)

let eval_script st lines =
  let st, replies =
    List.fold_left
      (fun (st, acc) line ->
        let st, reply = eval st line in
        (st, if reply = "" then acc else reply :: acc))
      (st, []) lines
  in
  (st, List.rev replies)
