(* datacite-server: TCP daemon serving citations over a line protocol.

   Loads a database + citation-view catalog once, builds one shared
   engine, then answers the v1 commands (CITE / CITE_PARAM / STATS /
   HEALTH / QUIT) plus the protocol-v2 versioned commands (CITE_AT /
   COMMIT_DELTA / VERSIONS / VERIFY / REGISTER) — one line each way,
   responses are single-line JSON.  The loaded snapshot is version 0;
   COMMIT_DELTA advances the head while old versions stay citable.
   SIGINT/SIGTERM drain in-flight requests before exiting. *)

module C = Dc_citation
module S = Dc_server
open Cmdliner

let log_src = Logs.Src.create "datacite.startup" ~doc:"Server start-up"

module Log = (val Logs.src_log log_src)

let read_file path =
  match Dc_relational.Csv_io.read_file path with
  | Ok s -> s
  | Error e ->
      prerr_endline e;
      exit 1

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

let data_arg =
  let doc = "Directory with schema.spec and <Relation>.csv files." in
  Arg.(value & opt (some dir) None & info [ "data" ] ~docv:"DIR" ~doc)

let views_arg =
  let doc = "Citation view specification file." in
  Arg.(value & opt (some file) None & info [ "views" ] ~docv:"FILE" ~doc)

let program_arg =
  let doc =
    "Datalog program file (rules plus export/cite statements).  Its \
     exported views are served alongside any --views, and its derived \
     predicates (including recursive ones) are derived before serving, \
     then for each committed version by the first cite that reads \
     them."
  in
  Arg.(value & opt (some file) None & info [ "program" ] ~docv:"FILE" ~doc)

let demo_arg =
  let doc =
    "Serve the built-in GtoPdb worked example instead of --data/--views."
  in
  Arg.(value & flag & info [ "demo" ] ~doc)

let host_arg =
  let doc = "Address to bind." in
  Arg.(
    value
    & opt string S.Server.default_config.host
    & info [ "host" ] ~docv:"ADDR" ~doc)

let port_arg =
  let doc = "Port to listen on (0 picks an ephemeral port)." in
  Arg.(
    value
    & opt int S.Server.default_config.port
    & info [ "port"; "p" ] ~docv:"PORT" ~doc)

let workers_arg =
  let doc = "Worker threads executing requests." in
  Arg.(
    value
    & opt int S.Server.default_config.workers
    & info [ "workers" ] ~docv:"N" ~doc)

let queue_arg =
  let doc =
    "Pending-request queue bound; past it requests are shed with the \
     single line ERR {\"error\":\"BUSY\"}."
  in
  Arg.(
    value
    & opt int S.Server.default_config.queue_capacity
    & info [ "queue" ] ~docv:"N" ~doc)

let max_pipeline_arg =
  let doc =
    "In-flight (unanswered) requests allowed per connection before further \
     ones are shed with BUSY.  Responses always return in request order, \
     so clients may pipeline up to this deep."
  in
  Arg.(
    value
    & opt int S.Server.default_config.max_pipeline
    & info [ "max-pipeline" ] ~docv:"N" ~doc)

let max_batch_arg =
  let doc = "Largest accepted CITE_BATCH count." in
  Arg.(
    value
    & opt int S.Server.default_config.max_batch
    & info [ "max-batch" ] ~docv:"N" ~doc)

let conn_buffer_arg =
  let doc =
    "Unflushed response bytes buffered per connection before the server \
     stops reading it until the client drains (flow control, not an error)."
  in
  Arg.(
    value
    & opt int S.Server.default_config.conn_buffer_bytes
    & info [ "conn-buffer" ] ~docv:"BYTES" ~doc)

let version_cache_arg =
  let doc =
    "Materialized per-version engines kept for CITE_AT (LRU; the head \
     engine is never evicted)."
  in
  Arg.(
    value
    & opt int S.Server.default_config.version_cache
    & info [ "version-cache" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc = "Per-request timeout in seconds." in
  Arg.(
    value
    & opt float S.Server.default_config.request_timeout_s
    & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let data_dir_arg =
  let doc =
    "Durable data directory (write-ahead log + snapshots).  An empty \
     directory is initialized from the loaded database; a populated one is \
     recovered on start — WAL replayed onto the latest snapshot, torn tails \
     discarded, registered queries re-armed — so VERIFY holds across \
     restarts.  Without this flag the server is purely in-memory."
  in
  Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)

let fsync_arg =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "always" -> Ok Dc_storage.Store.Always
    | "never" -> Ok Dc_storage.Store.Never
    | p -> (
        let num =
          match String.index_opt p ':' with
          | Some i when String.sub p 0 i = "interval" ->
              String.sub p (i + 1) (String.length p - i - 1)
          | _ -> p
        in
        match float_of_string_opt num with
        | Some f when f > 0. -> Ok (Dc_storage.Store.Interval f)
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "bad fsync policy %S (want always, never or \
                    interval:SECONDS)"
                   s)))
  in
  let print ppf = function
    | Dc_storage.Store.Always -> Format.pp_print_string ppf "always"
    | Dc_storage.Store.Never -> Format.pp_print_string ppf "never"
    | Dc_storage.Store.Interval f -> Format.fprintf ppf "interval:%g" f
  in
  let doc =
    "WAL fsync policy with --data-dir: $(b,always) (every commit durable \
     before it is acknowledged), $(b,interval:SECONDS) (bounded loss \
     window), or $(b,never) (leave flushing to the OS)."
  in
  Arg.(
    value
    & opt (conv (parse, print)) S.Server.default_config.fsync
    & info [ "fsync" ] ~docv:"POLICY" ~doc)

let snapshot_every_arg =
  let doc =
    "Background snapshot cadence in seconds with --data-dir (0 disables; a \
     final snapshot is still written on graceful shutdown)."
  in
  Arg.(
    value
    & opt float S.Server.default_config.snapshot_every_s
    & info [ "snapshot-every" ] ~docv:"SECONDS" ~doc)

let recovery_arg =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "full" -> Ok Dc_storage.Store.Full
    | "fast" -> Ok Dc_storage.Store.Fast
    | _ -> Error (`Msg (Printf.sprintf "bad recovery mode %S (want full or fast)" s))
  in
  let print ppf = function
    | Dc_storage.Store.Full -> Format.pp_print_string ppf "full"
    | Dc_storage.Store.Fast -> Format.pp_print_string ppf "fast"
  in
  let doc =
    "Recovery mode with --data-dir: $(b,full) replays the whole WAL so \
     every version ever committed is citable again; $(b,fast) restarts \
     from the latest snapshot only."
  in
  Arg.(
    value
    & opt (conv (parse, print)) S.Server.default_config.recovery
    & info [ "recovery" ] ~docv:"MODE" ~doc)

let load_program path =
  match Dc_cq.Program.parse (read_file path) with
  | Ok p -> p
  | Error e ->
      prerr_endline ("program error: " ^ e);
      exit 1

let run data views program demo host port workers queue max_pipeline
    max_batch conn_buffer version_cache timeout data_dir fsync snapshot_every
    recovery =
  (* warnings and errors from every layer, plus this start-up line *)
  Logs.set_reporter (Logs.format_reporter ());
  Logs.Src.set_level log_src (Some Logs.Info);
  let now = Dc_clock.Monotonic.now_s in
  let t0 = now () in
  let db, cvs =
    if demo then
      (Dc_gtopdb.Paper_views.example_database (), Dc_gtopdb.Paper_views.all)
    else
      match (data, views, program) with
      | Some data, Some views, _ -> (load_db data, load_views views)
      | Some data, None, Some _ -> (load_db data, [])
      | _ ->
          prerr_endline
            "datacite-server: pass --data DIR with --views FILE and/or \
             --program FILE, or --demo";
          exit 1
  in
  let t1 = now () in
  let engine =
    match program with
    | None -> C.Engine.create db cvs
    | Some path -> (
        let prog = load_program path in
        try C.Engine.of_program ~views:cvs db prog
        with Invalid_argument e ->
          prerr_endline ("program error: " ^ e);
          exit 1)
  in
  let config =
    {
      S.Server.default_config with
      host;
      port;
      workers;
      queue_capacity = queue;
      max_pipeline;
      max_batch;
      conn_buffer_bytes = conn_buffer;
      version_cache;
      request_timeout_s = timeout;
      data_dir;
      fsync;
      snapshot_every_s = snapshot_every;
      recovery;
    }
  in
  let t2 = now () in
  let server =
    try S.Server.start ~config engine
    with Failure e ->
      prerr_endline ("datacite-server: " ^ e);
      exit 1
  in
  let t3 = now () in
  let restore = S.Server.install_signal_handlers server in
  Printf.printf "datacite-server listening on %s:%d (%d views, %d tuples)\n%!"
    host (S.Server.port server)
    (C.Citation_view.Set.size (C.Engine.citation_views engine))
    (Dc_relational.Database.total_tuples db);
  let ms a b = (b -. a) *. 1000. in
  Log.info (fun m ->
      m "started in %.1f ms: load %.1f ms, engine and derivation %.1f ms, \
         storage init and listen %.1f ms"
        (ms t0 t3) (ms t0 t1) (ms t1 t2) (ms t2 t3));
  S.Server.wait server;
  restore ();
  (* Stdout may be gone by now (a supervisor read the banner and closed
     its pipe).  The stop was clean all the same: drop the status line,
     and close stdout so that the flush at exit does not retry it. *)
  try print_endline "datacite-server: stopped"
  with Sys_error _ -> close_out_noerr stdout

let () =
  (* A worker logs a failed job's backtrace, which is empty unless
     recorded.  The request path raises only on errors, so recording
     costs nothing while requests succeed. *)
  Printexc.record_backtrace true;
  let term =
    Term.(
      const run $ data_arg $ views_arg $ program_arg $ demo_arg $ host_arg
      $ port_arg
      $ workers_arg $ queue_arg $ max_pipeline_arg
      $ max_batch_arg $ conn_buffer_arg $ version_cache_arg $ timeout_arg
      $ data_dir_arg $ fsync_arg $ snapshot_every_arg $ recovery_arg)
  in
  let info =
    Cmd.info "datacite-server" ~version:"1.0.0"
      ~doc:"Serve data citations over a TCP line protocol"
  in
  exit (Cmd.eval (Cmd.v info term))
