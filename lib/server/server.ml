module C = Dc_citation
module R = Dc_relational

let log_src = Logs.Src.create "datacite.server" ~doc:"Citation server"

module Log = (val Logs.src_log log_src)

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  request_timeout_s : float;
  max_line_bytes : int;
  max_pipeline : int;
  max_batch : int;
  conn_buffer_bytes : int;
  version_cache : int;
  data_dir : string option;
  fsync : Dc_storage.Store.fsync;
  snapshot_every_s : float;
  recovery : Dc_storage.Store.mode;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7421;
    workers = 4;
    queue_capacity = 64;
    request_timeout_s = 30.;
    max_line_bytes = 1 lsl 16;
    max_pipeline = Reactor.default_config.Reactor.max_pipeline;
    max_batch = Reactor.default_config.Reactor.max_batch;
    conn_buffer_bytes = Reactor.default_config.Reactor.conn_buffer_bytes;
    version_cache = 4;
    data_dir = None;
    fsync = Dc_storage.Store.Always;
    snapshot_every_s = 300.;
    recovery = Dc_storage.Store.Full;
  }

type state = Serving | Draining | Stopped

type t = {
  (* Every command reads through it: v1 CITE, CITE_BATCH and CITE_PARAM
     cite its head engine, the v2 commands its versions.  Its version 0
     engine is the engine [start] was given. *)
  versioned : C.Versioned_engine.t;
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  pool : Worker_pool.t;
  mu : Mutex.t;
  mutable state : state;
  (* The event-driven connection core: owns every client socket and all
     of their buffering.  [Some] from [start] to the end of [stop] —
     option only because the handlers it is built over close over [t]. *)
  mutable reactor : Reactor.t option;
  started_at : float;
  stop_requested : bool Atomic.t;
  (* Durable backing, when [config.data_dir] was set: the WAL the
     versioned engine appends to, plus snapshot bookkeeping.  [stop]
     writes a final snapshot and closes it. *)
  storage : Dc_storage.Store.t option;
  mutable snapshot_thread : Thread.t option;
}

let port t = t.bound_port

(* Shared by every per-version engine. *)
let metrics t = C.Versioned_engine.metrics t.versioned

(* The engine of the version that is head now.  A commit publishes its
   version before acknowledging it, so a request arriving after the ack
   cites the new head. *)
let head_engine t =
  C.Versioned_engine.engine_at t.versioned (C.Versioned_engine.head t.versioned)

(* ------------------------------------------------------------------ *)
(* Request execution (runs on a pool worker).                          *)

(* [Metrics.record] reaches the default registry and every sink in
   scope: each caller runs under [with_sink (metrics t)], so an event
   counts once on each. *)
let record_err () = C.Metrics.record C.Metrics.Key.server_errors
let record_req () = C.Metrics.record C.Metrics.Key.server_requests

(* v1 citations go to the head engine — never through a registration,
   and without the stamp (and so the fixity digest) a [cite_at] adds. *)
let with_head_engine t f =
  match head_engine t with
  | Error e ->
      (* the head vanished: impossible through the public API *)
      record_err ();
      Protocol.error_line e
  | Ok eng -> f eng

(* The one [OK] line of a cite: what the folded summary carries, plus
   the version stamp of a [CITE_AT]. *)
let ok_cite ?version ?timestamp ?digest ?from_registration ~query ~ms
    (s : C.Engine.summary) =
  Protocol.ok_cite ?version ?timestamp ?digest ?from_registration ~query
    ~expr:(C.Cite_expr.to_string s.summary_expr)
    ~citations:s.summary_citations ~complete:s.summary_complete
    ~tuples:s.answers ~rewritings:s.rewriting_count ~ms ()

let execute t (req : Protocol.request) =
  let m = metrics t in
  C.Metrics.with_sink m @@ fun () ->
  let t0 = Dc_clock.Monotonic.now_s () in
  let ms () = Dc_clock.Monotonic.elapsed_ms t0 in
  match req with
  | Protocol.Quit -> Protocol.ok_bye
  | Protocol.Stats ->
      C.Metrics.record_time "server_stats" @@ fun () ->
      Protocol.ok_stats ~stats_json:(C.Metrics.to_json m)
  | Protocol.Health | Protocol.Health_v2 ->
      let db =
        R.Version_store.head_db (C.Versioned_engine.store t.versioned)
      in
      (* v2 HEALTH adds the durability report; bare HEALTH stays
         byte-identical to protocol v1. *)
      let v2 = req = Protocol.Health_v2 in
      let data_dir, wal_enabled, last_snapshot_version =
        match (v2, t.storage) with
        | false, _ -> (None, None, None)
        | true, None -> (None, Some false, None)
        | true, Some st ->
            ( Some (Dc_storage.Store.dir st),
              Some true,
              Some (Dc_storage.Store.last_snapshot_version st) )
      in
      let template = C.Versioned_engine.template t.versioned in
      let recursion =
        if v2 then Some (C.Engine.recursive_predicates template <> [])
        else None
      in
      let gc = if v2 then Some (Gc.quick_stat ()) else None in
      Protocol.ok_health
        ~version:(C.Versioned_engine.head t.versioned)
        ?data_dir ?wal_enabled ?last_snapshot_version ?recursion ?gc
        ~uptime_s:(Dc_clock.Monotonic.now_s () -. t.started_at)
        ~views:(C.Citation_view.Set.size (C.Engine.citation_views template))
        ~relations:(List.length (R.Database.relation_names db))
        ~tuples:(R.Database.total_tuples db)
        ()
  | Protocol.Cite_batch qs ->
      C.Metrics.record_time "server_cite_batch" @@ fun () ->
      (* [record] reaches [m] too: the engine sink is in scope here *)
      C.Metrics.record C.Metrics.Key.server_batches;
      (* One head-engine resolution for the whole batch, amortized over
         all [n] answers.  Each query still fails individually: a parse
         error costs its own line, never its neighbours'. *)
      let parsed = List.map (fun q -> (q, Dc_cq.Parser.parse_query q)) qs in
      let queries = List.filter_map (fun (_, r) -> Result.to_option r) parsed in
      let results =
        match head_engine t with
        | Error e -> Error e
        | Ok eng -> (
            match List.map (C.Engine.summary eng) queries with
            | rs -> Ok rs
            | exception ex -> Error (Printexc.to_string ex))
      in
      let lines =
        match results with
        | Error e ->
            (* The engine failing poisons only this batch: every line
               answers, parse errors with their own message. *)
            List.map
              (fun (_, r) ->
                record_err ();
                match r with
                | Error pe -> Protocol.error_line pe
                | Ok _ -> Protocol.error_line ("cite failed: " ^ e))
              parsed
        | Ok rs ->
            let remaining = ref rs in
            List.map
              (fun (q, r) ->
                match r with
                | Error e ->
                    record_err ();
                    Protocol.error_line e
                | Ok _ -> (
                    match !remaining with
                    | [] ->
                        (* unreachable: the batch returns one summary
                           per query, in order *)
                        record_err ();
                        Protocol.error_line "batch result missing"
                    | summary :: rest ->
                        remaining := rest;
                        ok_cite ~query:q ~ms:(ms ()) summary))
              parsed
      in
      String.concat "\n" lines
  | Protocol.Cite q -> (
      C.Metrics.record_time "server_cite" @@ fun () ->
      with_head_engine t @@ fun eng ->
      match Result.map (C.Engine.summary eng) (Dc_cq.Parser.parse_query q) with
      | Error e ->
          record_err ();
          Protocol.error_line e
      | Ok summary -> ok_cite ~query:q ~ms:(ms ()) summary
      | exception ex ->
          record_err ();
          Protocol.error_line ("cite failed: " ^ Printexc.to_string ex))
  | Protocol.Cite_at { version; query } -> (
      C.Metrics.record_time "server_cite_at" @@ fun () ->
      match Dc_cq.Parser.parse_query query with
      | Error e ->
          record_err ();
          Protocol.error_line e
      | Ok q -> (
          match C.Versioned_engine.summary_at t.versioned version q with
          | Error e ->
              record_err ();
              Protocol.error_line e
          | Ok c ->
              ok_cite ~version:c.version ?timestamp:c.timestamp
                ~digest:c.digest ~from_registration:c.from_registration
                ~query ~ms:(ms ()) c.result
          | exception ex ->
              record_err ();
              Protocol.error_line ("cite_at failed: " ^ Printexc.to_string ex)))
  | Protocol.Commit_delta delta -> (
      C.Metrics.record_time "server_commit_delta" @@ fun () ->
      match C.Versioned_engine.commit_delta t.versioned delta with
      | Error e ->
          record_err ();
          Protocol.error_line e
      | Ok version ->
          Protocol.ok_commit ~version ~size:(R.Delta.size delta)
            ~registrations:
              (List.length (C.Versioned_engine.registrations t.versioned))
            ~ms:(ms ())
      | exception ex ->
          record_err ();
          Protocol.error_line ("commit failed: " ^ Printexc.to_string ex))
  | Protocol.Versions ->
      let v = t.versioned in
      Protocol.ok_versions
        ~head:(C.Versioned_engine.head v)
        ~versions:
          (List.map
             (fun ver -> (ver, C.Versioned_engine.timestamp v ver))
             (C.Versioned_engine.versions v))
  | Protocol.Verify { version; digest } -> (
      C.Metrics.record_time "server_verify" @@ fun () ->
      match C.Versioned_engine.verify t.versioned version digest with
      | Error e ->
          record_err ();
          Protocol.error_line e
      | Ok valid -> Protocol.ok_verify ~version ~valid ~digest ~ms:(ms ()))
  | Protocol.Register query -> (
      C.Metrics.record_time "server_register" @@ fun () ->
      match Dc_cq.Parser.parse_query query with
      | Error e ->
          record_err ();
          Protocol.error_line e
      | Ok q -> (
          match C.Versioned_engine.register t.versioned q with
          | Error e ->
              record_err ();
              Protocol.error_line e
          | Ok () -> Protocol.ok_register ~query ~ms:(ms ())
          | exception ex ->
              record_err ();
              Protocol.error_line ("register failed: " ^ Printexc.to_string ex)))
  | Protocol.Cite_param { view; bindings } -> (
      C.Metrics.record_time "server_cite_param" @@ fun () ->
      with_head_engine t @@ fun eng ->
      match
        C.Citation_view.Set.find (C.Engine.citation_views eng) view
      with
      | None ->
          record_err ();
          Protocol.error_line (Printf.sprintf "unknown view %s" view)
      | Some _ -> (
          match
            C.Engine.resolve_leaf eng { view; params = bindings }
          with
          | citation -> Protocol.ok_citation ~view ~citation ~ms:(ms ())
          | exception ex ->
              record_err ();
              Protocol.error_line
                (Printf.sprintf "%s: %s" view (Printexc.to_string ex))))

(* ------------------------------------------------------------------ *)
(* Connection handling: the reactor owns every client socket; this
   layer only turns well-formed requests into worker-pool jobs and
   counts what the reactor reports. *)

let serving t =
  Mutex.lock t.mu;
  let s = t.state in
  Mutex.unlock t.mu;
  s = Serving

let record_busy () = C.Metrics.record C.Metrics.Key.server_busy_sheds

(* Runs on the reactor thread, so it must only enqueue.  The response
   reaches the wire through [reply]: the reactor holds the request's
   ordered slot and flushes it on write-readiness once filled. *)
let on_request t req ~reply =
  let m = metrics t in
  if not (serving t) then begin
    record_err ();
    `Reject (Protocol.error_line "server shutting down")
  end
  else begin
    (* a batch owes one line per query even when the job blows up *)
    let fallback e =
      let line = Protocol.error_line ("internal error: " ^ e) in
      match req with
      | Protocol.Cite_batch qs ->
          String.concat "\n" (List.map (fun _ -> line) qs)
      | _ -> line
    in
    match
      Worker_pool.submit t.pool (fun () ->
          C.Metrics.with_sink m @@ fun () ->
          reply
            (try execute t req
             with ex ->
               record_err ();
               fallback (Printexc.to_string ex)))
    with
    | Worker_pool.Accepted ->
        C.Metrics.record_max C.Metrics.Key.server_queue_depth
          (Worker_pool.depth t.pool);
        `Accepted
    | Worker_pool.Overloaded ->
        (* The bounded pending-request queue is full: shed this request
           with the BUSY line rather than buffering unboundedly. *)
        record_busy ();
        record_err ();
        `Reject Protocol.busy_line
    | Worker_pool.Shutting_down ->
        record_err ();
        `Reject (Protocol.error_line "server shutting down")
  end

let reactor_handlers t =
  let sunk f = C.Metrics.with_sink (metrics t) f in
  {
    Reactor.on_request =
      (fun req ~reply -> sunk (fun () -> on_request t req ~reply));
    on_receive = (fun () -> sunk record_req);
    on_error = (fun () -> sunk record_err);
    on_busy = (fun () -> sunk record_busy);
  }

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

(* Background snapshot cadence: wake often, snapshot when the interval
   elapsed and the head advanced.  Exits as soon as the server leaves
   Serving; [stop] joins it and writes the final drain snapshot
   itself. *)
let snapshot_loop t st =
  let interval = t.config.snapshot_every_s in
  let rec go last =
    if serving t then
      if Dc_clock.Monotonic.now_s () -. last >= interval then begin
        (match
           C.Metrics.with_sink (metrics t) (fun () ->
               Dc_storage.Store.write_snapshot st
                 ~store:(C.Versioned_engine.store t.versioned)
                 ~registrations:(C.Versioned_engine.registrations t.versioned))
         with
        | Ok v -> Log.debug (fun m -> m "background snapshot covers version %d" v)
        | Error e -> Log.warn (fun m -> m "background snapshot failed: %s" e));
        go (Dc_clock.Monotonic.now_s ())
      end
      else begin
        Thread.delay 0.05;
        go last
      end
  in
  go (Dc_clock.Monotonic.now_s ())

let start ?(config = default_config) eng =
  if config.version_cache < 1 then
    invalid_arg "Server.start: version_cache < 1";
  (* Open (or initialize) durable backing before taking any socket: a
     bad --data-dir must fail the whole start, with the storage
     layer's contextual path+reason message. *)
  let versioned, storage =
    match config.data_dir with
    | None ->
        (C.Versioned_engine.of_engine ~capacity:config.version_cache eng, None)
    | Some dir -> (
        match
          C.Metrics.with_sink (C.Engine.metrics eng) (fun () ->
              C.Versioned_engine.open_durable ~capacity:config.version_cache
                ~fsync:config.fsync ~mode:config.recovery
                ~db:(C.Engine.database eng) ~dir (fun _ -> eng))
        with
        | Error e -> failwith ("Server.start: " ^ e)
        | Ok (versioned, st, _) -> (versioned, Some st))
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen listen_fd 64
   with ex ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise ex);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    {
      versioned;
      config;
      listen_fd;
      bound_port;
      pool =
        Worker_pool.create ~workers:config.workers
          ~queue_capacity:config.queue_capacity ();
      mu = Mutex.create ();
      state = Serving;
      reactor = None;
      started_at = Dc_clock.Monotonic.now_s ();
      stop_requested = Atomic.make false;
      storage;
      snapshot_thread = None;
    }
  in
  t.reactor <-
    Some
      (Reactor.start
         ~config:
           {
             Reactor.default_config with
             Reactor.max_line_bytes = config.max_line_bytes;
             max_batch = config.max_batch;
             max_pipeline = config.max_pipeline;
             conn_buffer_bytes = config.conn_buffer_bytes;
             request_timeout_s = config.request_timeout_s;
           }
         ~listen_fd ~handlers:(reactor_handlers t) ());
  (match storage with
  | Some st when config.snapshot_every_s > 0. ->
      t.snapshot_thread <- Some (Thread.create (fun () -> snapshot_loop t st) ())
  | _ -> ());
  Log.info (fun m ->
      m "listening on %s:%d (%d worker thread(s))" config.host bound_port
        config.workers);
  t

let stopped t =
  Mutex.lock t.mu;
  let s = t.state in
  Mutex.unlock t.mu;
  s = Stopped

(* Polling, not [Condition.wait]: OCaml signal handlers run at poll
   points on the main thread, and a main thread parked in
   [pthread_cond_wait] never reaches one (the wait restarts on EINTR).
   [Thread.delay] returns to OCaml regularly, so Ctrl-C works while the
   main thread sits in [wait]. *)
let wait t =
  while not (stopped t) do
    Thread.delay 0.05
  done

let stop t =
  Mutex.lock t.mu;
  let proceed = t.state = Serving in
  if proceed then t.state <- Draining;
  Mutex.unlock t.mu;
  if not proceed then wait t
  else begin
    Log.info (fun m -> m "draining: refusing new work");
    (* 1. stop accepting connections and stop reading new requests;
       everything already framed is either queued or about to be. *)
    Option.iter Reactor.drain t.reactor;
    (* 2. drain: every accepted request finishes and fills its slot *)
    Worker_pool.shutdown t.pool;
    (* 3. flush the filled slots to their clients (bounded grace for
       slow readers), close every connection and join the reactor.  All
       client fds are reactor-owned, so this leaks none — the listener
       stays ours and closes next. *)
    Option.iter Reactor.stop t.reactor;
    t.reactor <- None;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* 4. durable drain: final snapshot of whatever head we reached,
       WAL synced and closed — the next start recovers instantly. *)
    Option.iter Thread.join t.snapshot_thread;
    (match t.storage with
    | None -> ()
    | Some st ->
        (match
           Dc_storage.Store.write_snapshot st
             ~store:(C.Versioned_engine.store t.versioned)
             ~registrations:(C.Versioned_engine.registrations t.versioned)
         with
        | Ok v -> Log.info (fun m -> m "drain snapshot covers version %d" v)
        | Error e -> Log.warn (fun m -> m "drain snapshot failed: %s" e));
        Dc_storage.Store.close st);
    Mutex.lock t.mu;
    t.state <- Stopped;
    Mutex.unlock t.mu;
    Log.info (fun m -> m "stopped")
  end

let request_stop t = Atomic.set t.stop_requested true

let install_signal_handlers t =
  let previous = ref [] in
  let handler = Sys.Signal_handle (fun _ -> request_stop t) in
  List.iter
    (fun s -> previous := (s, Sys.signal s handler) :: !previous)
    [ Sys.sigint; Sys.sigterm ];
  (* Signal handlers must not block, so the handler only flips a flag; a
     watcher thread turns it into the (joining) graceful stop. *)
  ignore
    (Thread.create
       (fun () ->
         while not (Atomic.get t.stop_requested) && not (stopped t) do
           Thread.delay 0.05
         done;
         if Atomic.get t.stop_requested then stop t)
       ());
  fun () -> List.iter (fun (s, b) -> Sys.set_signal s b) !previous
