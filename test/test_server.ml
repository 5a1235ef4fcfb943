(* Loopback integration tests for the citation server: concurrent
   clients, error isolation, metrics consistency, graceful shutdown. *)

module C = Dc_citation
module S = Dc_server
module Client = Dc_oracle.Client

let fresh_server () =
  let engine =
    C.Engine.create
      (Dc_gtopdb.Paper_views.example_database ())
      Dc_gtopdb.Paper_views.all
  in
  let config = { S.Server.default_config with port = 0; workers = 4 } in
  (engine, S.Server.start ~config engine)

let with_server f =
  let engine, server = fresh_server () in
  Fun.protect ~finally:(fun () -> S.Server.stop server) (fun () ->
      f engine server)

let request server line =
  let conn = Client.connect ~port:(S.Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) (fun () ->
      Client.request conn line)

let expect_ok name = function
  | Some line -> (
      match Testutil.classify_response line with
      | `Ok body -> body
      | `Err e -> Alcotest.failf "%s: unexpected ERR %s" name e
      | `Malformed -> Alcotest.failf "%s: malformed response %S" name line)
  | None -> Alcotest.failf "%s: connection closed" name

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec at i = i + m <= n && (String.sub line i m = sub || at (i + 1)) in
  at 0

let cite_q = "CITE Q(N) :- Family(F,N,D)"

type load = { answered : int; errors : int; busy : int }

(* Open [clients] threaded connections; each sends [requests_per_client]
   lines taken in turn from [requests], keeping up to [depth] of them
   unanswered (depth 1 is request/response), then QUITs.  [answered]
   counts the response lines actually received, so a dropped connection
   shows up as a shortfall; [busy] is the subset of [errors] that were
   BUSY sheds. *)
let drive ~port ~clients ~requests_per_client ?(depth = 1) requests =
  let reqs = Array.of_list requests in
  let answered = Atomic.make 0 and errors = Atomic.make 0 in
  let busy = Atomic.make 0 in
  let client k () =
    let conn = Client.connect ~port () in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    let sent = ref 0 and received = ref 0 and closed = ref false in
    while !received < requests_per_client && not !closed do
      while !sent < requests_per_client && !sent - !received < depth do
        Client.send conn reqs.((k + !sent) mod Array.length reqs);
        incr sent
      done;
      Client.flush_out conn;
      match Client.recv conn with
      | None -> closed := true
      | Some line -> (
          incr received;
          Atomic.incr answered;
          match Testutil.classify_response line with
          | `Ok _ -> ()
          | `Err _ | `Malformed ->
              Atomic.incr errors;
              if Testutil.is_busy_response line then Atomic.incr busy)
    done;
    if not !closed then ignore (Client.request conn "QUIT")
  in
  List.init clients (fun k -> Thread.create (client k) ())
  |> List.iter Thread.join;
  {
    answered = Atomic.get answered;
    errors = Atomic.get errors;
    busy = Atomic.get busy;
  }

let test_cite_roundtrip () =
  with_server @@ fun _engine server ->
  let body = expect_ok "cite" (request server cite_q) in
  Alcotest.(check bool) "complete" true (contains body {|"complete":true|});
  Alcotest.(check bool) "has citations" true (contains body {|"citations":[|});
  let health = expect_ok "health" (request server "HEALTH") in
  Alcotest.(check bool) "serving" true (contains health {|"status":"serving"|})

let test_error_isolation () =
  with_server @@ fun engine server ->
  let conn = Client.connect ~port:(S.Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  (* a malformed request costs one ERR line, nothing else *)
  (match Client.request conn "BOGUS nonsense" with
  | Some line when String.length line >= 4 && String.sub line 0 4 = "ERR " ->
      ()
  | other ->
      Alcotest.failf "expected ERR, got %s"
        (Option.value ~default:"<closed>" other));
  (* same connection still serves *)
  let body = expect_ok "cite after error" (Client.request conn cite_q) in
  Alcotest.(check bool) "still complete" true
    (contains body {|"complete":true|});
  (* unknown view and unknown relation are errors, not disconnects *)
  (match Client.request conn "CITE_PARAM NoSuchView X=1" with
  | Some line -> (
      match Testutil.classify_response line with
      | `Err _ -> ()
      | _ -> Alcotest.failf "unknown view should ERR, got %S" line)
  | None -> Alcotest.fail "connection closed on unknown view");
  (* each of the two ERR lines counts once on the registry STATS serves *)
  Alcotest.(check int) "two server errors" 2
    (C.Metrics.count (C.Engine.metrics engine) C.Metrics.Key.server_errors);
  let stats = expect_ok "stats" (Client.request conn "STATS") in
  Alcotest.(check bool) "STATS reads two errors" true
    (contains stats {|"server_errors":2,|}
    || contains stats {|"server_errors":2}|});
  match Client.request conn "QUIT" with
  | Some line ->
      Alcotest.(check bool) "bye" true (contains line {|"bye":true|})
  | None -> Alcotest.fail "no QUIT response"

let test_concurrent_clients () =
  with_server @@ fun engine server ->
  let requests = [ cite_q; "STATS"; "HEALTH"; cite_q ] in
  let stats =
    drive ~port:(S.Server.port server) ~clients:4 ~requests_per_client:25
      requests
  in
  Alcotest.(check int) "all answered" 100 stats.answered;
  Alcotest.(check int) "no errors" 0 stats.errors;
  (* every request line (100 + 4 QUITs) is counted on the engine registry *)
  let m = C.Engine.metrics engine in
  Alcotest.(check int)
    "server_requests consistent" 104
    (C.Metrics.count m C.Metrics.Key.server_requests);
  Alcotest.(check int)
    "no server errors" 0
    (C.Metrics.count m C.Metrics.Key.server_errors);
  (* STATS serves those counters in the cite --stats JSON shape *)
  let body = expect_ok "stats" (request server "STATS") in
  Alcotest.(check bool) "counters" true (contains body {|"counters":{|});
  Alcotest.(check bool) "timers" true (contains body {|"timers":{|});
  Alcotest.(check bool)
    "server_requests surfaced" true
    (contains body {|"server_requests":10|})

(* --- protocol v2: versioned serving over loopback ------------------ *)

let find_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec at i =
    if i + m > n then None
    else if String.sub line i m = sub then Some i
    else at (i + 1)
  in
  at 0

(* Extract the string value of a ["key":"..."] field. *)
let extract_str line key =
  let marker = Printf.sprintf {|"%s":"|} key in
  match find_sub line marker with
  | None -> Alcotest.failf "no %s field in %S" key line
  | Some i ->
      let start = i + String.length marker in
      let e = String.index_from line start '"' in
      String.sub line start (e - start)

(* Extract the integer value of a ["key":n] field. *)
let extract_int line key =
  let marker = Printf.sprintf {|"%s":|} key in
  match find_sub line marker with
  | None -> Alcotest.failf "no %s field in %S" key line
  | Some i ->
      let start = i + String.length marker in
      let e = ref start in
      while
        !e < String.length line
        && (match line.[!e] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr e
      done;
      int_of_string (String.sub line start (!e - start))

(* A response minus its trailing ms field: what must be byte-identical
   across repeated citations of the same version. *)
let sans_ms line =
  match find_sub line {|,"ms":|} with
  | Some i -> String.sub line 0 i
  | None -> line

let cite_at_0 = "V2 CITE_AT 0 Q(N) :- Family(F,N,D)"

let test_versioned_roundtrip () =
  with_server @@ fun _engine server ->
  let conn = Client.connect ~port:(S.Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let req line = Client.request conn line in
  (* handshake: HEALTH advertises the protocol and the head version *)
  let health = expect_ok "health" (req "HEALTH") in
  Alcotest.(check bool) "protocol advertised" true
    (contains health {|"protocol":2|});
  Alcotest.(check bool) "head version 0" true
    (contains health {|"head_version":0|});
  let versions = expect_ok "versions" (req "V2 VERSIONS") in
  Alcotest.(check bool) "head 0" true (contains versions {|"head":0|});
  (* cite at version 0, remember the stamped response *)
  let at0 = expect_ok "cite_at 0" (req cite_at_0) in
  Alcotest.(check bool) "version stamp" true (contains at0 {|"version":0|});
  let digest = extract_str at0 "digest" in
  Alcotest.(check bool) "digest non-empty" true (digest <> "");
  (* commit a delta: the head advances *)
  let commit =
    expect_ok "commit"
      (req "V2 COMMIT_DELTA +Family(30,Orexin,O1);+FamilyIntro(30,intro)")
  in
  Alcotest.(check bool) "new head 1" true (contains commit {|"version":1|});
  let health' = expect_ok "health after commit" (req "HEALTH") in
  Alcotest.(check bool) "head_version moved" true
    (contains health' {|"head_version":1|});
  (* a v1 client sees the new head through plain CITE *)
  let head_cite = expect_ok "v1 cite after commit" (req cite_q) in
  let at1 = expect_ok "cite_at 1" (req "V2 CITE_AT 1 Q(N) :- Family(F,N,D)") in
  Alcotest.(check string) "CITE = CITE_AT head (modulo stamp+ms)"
    (extract_str head_cite "expr")
    (extract_str at1 "expr");
  Alcotest.(check int) "head sees one more tuple"
    (extract_int at0 "tuples" + 1)
    (extract_int at1 "tuples");
  (* version 0 is still served, byte-identical to before the commit *)
  let at0' = expect_ok "cite_at 0 after commit" (req cite_at_0) in
  Alcotest.(check string) "pre-delta citation unchanged" (sans_ms at0)
    (sans_ms at0');
  (* fixity: the recorded digest verifies, a tampered one does not *)
  let verify = expect_ok "verify" (req ("V2 VERIFY 0 " ^ digest)) in
  Alcotest.(check bool) "valid" true (contains verify {|"valid":true|});
  let tampered = "0" ^ String.sub digest 1 (String.length digest - 1) in
  let tampered = if tampered = digest then "1" ^ String.sub digest 1 (String.length digest - 1) else tampered in
  let verify' = expect_ok "verify tampered" (req ("V2 VERIFY 0 " ^ tampered)) in
  Alcotest.(check bool) "invalid" true (contains verify' {|"valid":false|});
  (* failures cost one ERR line and never kill the connection *)
  (match req "V2 CITE_AT 99 Q(N) :- Family(F,N,D)" with
  | Some line when String.length line >= 4 && String.sub line 0 4 = "ERR " ->
      ()
  | other ->
      Alcotest.failf "unknown version should ERR, got %s"
        (Option.value ~default:"<closed>" other));
  (match req "V2 COMMIT_DELTA +NoSuchRelation(1)" with
  | Some line when String.length line >= 4 && String.sub line 0 4 = "ERR " ->
      ()
  | other ->
      Alcotest.failf "bad delta should ERR, got %s"
        (Option.value ~default:"<closed>" other));
  (* registration: REGISTER arms incremental serving at head *)
  let reg = expect_ok "register" (req "V2 REGISTER Q(N) :- Family(F,N,D)") in
  Alcotest.(check bool) "registered" true (contains reg {|"registered":|});
  let warm = expect_ok "cite_at head registered" (req "V2 CITE_AT 1 Q(N) :- Family(F,N,D)") in
  Alcotest.(check bool) "served from registration" true
    (contains warm {|"from_registration":true|});
  (* connection still healthy end to end *)
  let bye = req "QUIT" in
  Alcotest.(check bool) "bye" true
    (contains (Option.value ~default:"" bye) {|"bye":true|})

(* Old versions keep serving while commits land concurrently: the
   commit path must never block or corrupt in-flight CITE_ATs.  Runs
   the server with 2 worker threads so requests interleave. *)
let test_versioned_concurrent_commits () =
  let engine =
    C.Engine.create
      (Dc_gtopdb.Paper_views.example_database ())
      Dc_gtopdb.Paper_views.all
  in
  let config = { S.Server.default_config with port = 0; workers = 2 } in
  let server = S.Server.start ~config engine in
  Fun.protect ~finally:(fun () -> S.Server.stop server) @@ fun () ->
  let baseline = sans_ms (expect_ok "baseline" (request server cite_at_0)) in
  let failures = Atomic.make 0 in
  let commits = 5 in
  let committer =
    Thread.create
      (fun () ->
        for i = 1 to commits do
          let line =
            Printf.sprintf "V2 COMMIT_DELTA +Family(%d,Fam%d,D%d)" (100 + i) i
              i
          in
          match request server line with
          | Some resp when contains resp {|"ok":true|} -> ()
          | _ -> Atomic.incr failures
        done)
      ()
  in
  (* hammer the pre-delta version while the commits land *)
  for _ = 1 to 20 do
    match request server cite_at_0 with
    | Some line when sans_ms line = baseline -> ()
    | _ -> Atomic.incr failures
  done;
  Thread.join committer;
  Alcotest.(check int) "no failures under concurrent commits" 0
    (Atomic.get failures);
  let versions = expect_ok "final versions" (request server "V2 VERSIONS") in
  Alcotest.(check bool) "all commits landed" true
    (contains versions (Printf.sprintf {|"head":%d|} commits));
  (* and the head now serves the committed data *)
  let head =
    expect_ok "cite head"
      (request server
         (Printf.sprintf "V2 CITE_AT %d Q(N) :- Family(F,N,D)" commits))
  in
  Alcotest.(check bool) "head differs from v0" true
    (sans_ms head <> baseline)

(* v1 reads never fall behind an acknowledged commit.  Client threads
   commit concurrently, each delta inserting a Family row of its own;
   after every acknowledgement a fresh connection's v1 CITE finds every
   row acknowledged so far, and v1 and v2 HEALTH report at least the
   acknowledged head and its data. *)
let test_v1_reads_every_acked_commit () =
  let engine =
    C.Engine.create
      (Dc_gtopdb.Paper_views.example_database ())
      Dc_gtopdb.Paper_views.all
  in
  let config = { S.Server.default_config with port = 0; workers = 2 } in
  let server = S.Server.start ~config engine in
  Fun.protect ~finally:(fun () -> S.Server.stop server) @@ fun () ->
  let base_tuples =
    extract_int (expect_ok "health" (request server "HEALTH")) "tuples"
  in
  let clients = 4 and commits_each = 6 in
  let mu = Mutex.create () in
  let acked = ref [] and failures = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> Mutex.protect mu (fun () -> failures := msg :: !failures))
      fmt
  in
  let ok_body line = function
    | Some resp -> (
        match Testutil.classify_response resp with
        | `Ok body -> Some body
        | _ ->
            fail "%s: %s" line resp;
            None)
    | None ->
        fail "%s: connection closed" line;
        None
  in
  let client c =
    for k = 1 to commits_each do
      let fid = 1000 + (c * commits_each) + k in
      let commit =
        Printf.sprintf "V2 COMMIT_DELTA +Family(%d,Acked%d,D)" fid fid
      in
      match ok_body commit (request server commit) with
      | None -> ()
      | Some ack ->
          let version = extract_int ack "version" in
          let seen =
            Mutex.protect mu (fun () ->
                acked := fid :: !acked;
                !acked)
          in
          let conn = Client.connect ~port:(S.Server.port server) () in
          Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
          List.iter
            (fun f ->
              let cite = Printf.sprintf "CITE Q(N) :- Family(%d,N,D)" f in
              match ok_body cite (Client.request conn cite) with
              | Some body when extract_int body "tuples" <> 1 ->
                  fail "after acking version %d, %s: %s" version cite body
              | _ -> ())
            seen;
          List.iter
            (fun health ->
              match ok_body health (Client.request conn health) with
              | None -> ()
              | Some body ->
                  if extract_int body "head_version" < version then
                    fail "%s behind acked version %d: %s" health version body;
                  if extract_int body "tuples" < base_tuples + List.length seen
                  then fail "%s misses acked rows: %s" health body)
            [ "HEALTH"; "V2 HEALTH" ]
    done
  in
  List.init clients (fun c -> Thread.create client c) |> List.iter Thread.join;
  Alcotest.(check (list string)) "no stale v1 read" [] (List.rev !failures);
  let total = clients * commits_each in
  let v1 = expect_ok "v1 health" (request server "HEALTH") in
  let v2 = expect_ok "v2 health" (request server "V2 HEALTH") in
  Alcotest.(check int) "v1 head" total (extract_int v1 "head_version");
  Alcotest.(check int) "v2 head" total (extract_int v2 "head_version");
  Alcotest.(check int) "v1 tuples" (base_tuples + total)
    (extract_int v1 "tuples");
  let all = expect_ok "cite all" (request server cite_q) in
  Alcotest.(check int) "v1 cite sees every row" (3 + total)
    (extract_int all "tuples")

let test_graceful_shutdown () =
  let engine, server = fresh_server () in
  ignore engine;
  let restore = S.Server.install_signal_handlers server in
  let port = S.Server.port server in
  let body = expect_ok "pre-stop cite" (request server cite_q) in
  Alcotest.(check bool) "served" true (contains body {|"complete":true|});
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  S.Server.wait server;
  restore ();
  Alcotest.(check bool) "stopped" true (S.Server.stopped server);
  (match Client.connect ~port () with
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
  | exception Unix.Unix_error _ -> ()
  | conn ->
      (* accept may race the very last moment of shutdown; a closed or
         refused connection both count as "refusing new work" *)
      (match Client.request conn cite_q with
      | None -> ()
      | Some line ->
          Alcotest.failf "post-stop request was answered: %S" line);
      Client.close conn);
  (* stop is idempotent after a signal-driven stop *)
  S.Server.stop server

(* --- pipelining, batching, backpressure ---------------------------- *)

(* Many requests on the wire before the first response; responses must
   come back in request order even while commits churn the engine on a
   second connection.  VERIFY echoes its digest, so each response is
   attributable to its request. *)
let test_pipelining_order () =
  with_server @@ fun _engine server ->
  let conn = Client.connect ~port:(S.Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let n = 50 in
  let stop_commits = Atomic.make false in
  let committer =
    Thread.create
      (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop_commits) do
          incr i;
          ignore
            (request server
               (Printf.sprintf "V2 COMMIT_DELTA +Family(%d,Pipe%d,P%d)"
                  (500 + !i) !i !i))
        done)
      ()
  in
  Fun.protect ~finally:(fun () ->
      Atomic.set stop_commits true;
      Thread.join committer)
  @@ fun () ->
  for i = 0 to n - 1 do
    Client.send conn (Printf.sprintf "V2 VERIFY 0 digest%04d" i)
  done;
  Client.flush_out conn;
  for i = 0 to n - 1 do
    match Client.recv conn with
    | None -> Alcotest.failf "connection closed at response %d" i
    | Some line ->
        Alcotest.(check bool)
          (Printf.sprintf "response %d carries its own digest" i)
          true
          (contains line (Printf.sprintf {|"digest":"digest%04d"|} i))
  done

let test_cite_batch_wire () =
  with_server @@ fun engine server ->
  let conn = Client.connect ~port:(S.Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  (* sequential answers to compare against, same connection *)
  let solo_family = expect_ok "solo cite" (Client.request conn cite_q) in
  let solo_intro =
    expect_ok "solo cite 2"
      (Client.request conn "CITE Q(F) :- FamilyIntro(F,T)")
  in
  Client.send conn "CITE_BATCH 3";
  Client.send conn "Q(N) :- Family(F,N,D)";
  Client.send conn "this is not a query";
  Client.send conn "Q(F) :- FamilyIntro(F,T)";
  Client.flush_out conn;
  let r1 = Client.recv conn in
  let r2 = Client.recv conn in
  let r3 = Client.recv conn in
  (* one line per query, in order: OK, ERR, OK — the bad query costs
     only its own line *)
  let body1 = expect_ok "batch line 1" r1 in
  (match Option.map Testutil.classify_response r2 with
  | Some (`Err _) -> ()
  | _ ->
      Alcotest.failf "bad batch query should ERR, got %s"
        (Option.value ~default:"<closed>" r2));
  let body3 = expect_ok "batch line 3" r3 in
  (* batched answers match their sequential equivalents (modulo ms) *)
  Alcotest.(check string) "line 1 = solo cite" (sans_ms solo_family)
    (sans_ms body1);
  Alcotest.(check string) "line 3 = solo cite 2" (sans_ms solo_intro)
    (sans_ms body3);
  (* the whole batch was one request through the engine *)
  let m = C.Engine.metrics engine in
  Alcotest.(check int) "one batch executed" 1
    (C.Metrics.count m C.Metrics.Key.server_batches);
  (* the connection still serves after a batch *)
  let health = expect_ok "health after batch" (Client.request conn "HEALTH") in
  Alcotest.(check bool) "serving" true (contains health {|"status":"serving"|})

(* A cite's response is folded from the answer groups (Engine.summary,
   Versioned_engine.summary_at); its line must be the one rendered from
   the full Engine.cite / Versioned_engine.cite_at result, byte for byte
   apart from [ms], for CITE, CITE_BATCH and CITE_AT alike, engine- and
   registration-served.  [`All] selection under [Keep_all] makes the
   paper's Q merge two rewritings' runs. *)
let test_cite_lines_match_cite () =
  let make () =
    C.Engine.create ~selection:`All
      ~policy:(C.Policy.make ~alt_r:C.Policy.Keep_all ())
      (Dc_gtopdb.Paper_views.example_database ())
      Dc_gtopdb.Paper_views.all
  in
  let engine = make () in
  let server =
    S.Server.start ~config:{ S.Server.default_config with port = 0 } engine
  in
  Fun.protect ~finally:(fun () -> S.Server.stop server) @@ fun () ->
  let conn = Client.connect ~port:(S.Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let req line = expect_ok line (Client.request conn line) in
  let parse = Dc_cq.Parser.parse_query_exn in
  let queries =
    [
      "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
      "Q(N) :- Family(F,N,D)";
      "Q(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)";
      "Q(Text) :- FamilyIntro(11,Text)";
      "Q(TName) :- Target(TID,TName,TType)";
    ]
  in
  let line ?version ?timestamp ?digest ?from_registration q
      (r : C.Engine.result) =
    S.Protocol.ok_cite ?version ?timestamp ?digest ?from_registration ~query:q
      ~expr:(C.Cite_expr.to_string r.result_expr)
      ~citations:r.result_citations ~complete:r.complete
      ~tuples:(List.length r.tuples)
      ~rewritings:(List.length r.rewritings) ~ms:0. ()
  in
  let cite_line q = line q (C.Engine.cite engine (parse q)) in
  List.iter
    (fun q ->
      Alcotest.(check string) ("CITE " ^ q) (sans_ms (cite_line q))
        (sans_ms (req ("CITE " ^ q))))
    queries;
  Client.send conn (Printf.sprintf "CITE_BATCH %d" (List.length queries));
  List.iter (Client.send conn) queries;
  Client.flush_out conn;
  List.iter
    (fun q ->
      Alcotest.(check string) ("CITE_BATCH " ^ q) (sans_ms (cite_line q))
        (sans_ms (expect_ok q (Client.recv conn))))
    queries;
  (* the same history on a local versioned engine: its stamps (the
     store's clock is a counter) and answers must be the server's *)
  let local = C.Versioned_engine.of_engine (make ()) in
  let commit = "V2 COMMIT_DELTA +Family(30,Orexin,O1);+FamilyIntro(30,intro)" in
  (match S.Protocol.parse_request commit with
  | Ok (S.Protocol.Commit_delta d) ->
      ignore (req commit);
      ignore (Result.get_ok (C.Versioned_engine.commit_delta local d))
  | _ -> Alcotest.fail "commit request does not parse");
  let registered = List.nth queries 0 in
  ignore (req ("V2 REGISTER " ^ registered));
  Result.get_ok (C.Versioned_engine.register local (parse registered));
  List.iter
    (fun (v, q) ->
      let c = Result.get_ok (C.Versioned_engine.cite_at local v (parse q)) in
      let want =
        line ~version:c.version ?timestamp:c.timestamp ~digest:c.digest
          ~from_registration:c.from_registration q c.result
      in
      Alcotest.(check string)
        (Printf.sprintf "CITE_AT %d %s" v q)
        (sans_ms want)
        (sans_ms (req (Printf.sprintf "V2 CITE_AT %d %s" v q))))
    ((1, registered) :: List.concat_map (fun q -> [ (0, q); (1, q) ]) queries);
  Alcotest.(check bool) "the head of the registered query is served from it"
    true
    (contains
       (req (Printf.sprintf "V2 CITE_AT 1 %s" registered))
       {|"from_registration":true|})

(* Overload: a tiny pipeline bound with deep pipelining must shed with
   BUSY lines — every request answered, nothing hangs, the connection
   survives. *)
let test_busy_shedding () =
  let engine =
    C.Engine.create
      (Dc_gtopdb.Paper_views.example_database ())
      Dc_gtopdb.Paper_views.all
  in
  let config =
    {
      S.Server.default_config with
      port = 0;
      workers = 1;
      queue_capacity = 2;
      max_pipeline = 2;
    }
  in
  let server = S.Server.start ~config engine in
  Fun.protect ~finally:(fun () -> S.Server.stop server) @@ fun () ->
  let stats =
    drive ~port:(S.Server.port server) ~clients:2 ~requests_per_client:40
      ~depth:20 [ cite_q ]
  in
  Alcotest.(check int) "every request answered" 80 stats.answered;
  Alcotest.(check bool) "overload sheds with BUSY" true (stats.busy > 0);
  Alcotest.(check int) "every error is a BUSY shed" stats.errors stats.busy;
  (* the server is healthy after the storm *)
  let health = expect_ok "health after overload" (request server "HEALTH") in
  Alcotest.(check bool) "still serving" true
    (contains health {|"status":"serving"|});
  let m = C.Engine.metrics engine in
  Alcotest.(check bool) "sheds counted" true
    (C.Metrics.count m C.Metrics.Key.server_busy_sheds > 0)

(* A stamp issued before stamps were tagged — an untagged v1 digest,
   computed here with [Fixity.digest_db] — still verifies on a server
   whose CITE_AT stamps carry v2 digests; an unknown tag is an ERR. *)
let test_v1_stamp_verifies () =
  with_server @@ fun _engine server ->
  let v1 = C.Fixity.digest_db (Dc_gtopdb.Paper_views.example_database ()) in
  let verify = expect_ok "verify v1" (request server ("V2 VERIFY 0 " ^ v1)) in
  Alcotest.(check bool) "untagged v1 stamp valid" true
    (contains verify {|"valid":true|});
  let at0 = expect_ok "cite_at 0" (request server cite_at_0) in
  let v2 = extract_str at0 "digest" in
  Alcotest.(check bool) "CITE_AT stamps v2" true
    (String.length v2 = 35 && String.sub v2 32 3 = ":v2");
  let verify2 = expect_ok "verify v2" (request server ("V2 VERIFY 0 " ^ v2)) in
  Alcotest.(check bool) "v2 stamp valid" true (contains verify2 {|"valid":true|});
  match request server ("V2 VERIFY 0 " ^ String.sub v2 0 32 ^ ":v9") with
  | Some line when String.length line >= 4 && String.sub line 0 4 = "ERR " ->
      Alcotest.(check bool) "ERR names the tag" true (contains line ":v9")
  | other ->
      Alcotest.failf "unknown tag should ERR, got %s"
        (Option.value ~default:"<closed>" other)

(* STATS tells derivations from scratch from continued ones: after a
   commit, the new head's closure continues the start-up fixpoint. *)
let test_stats_count_derivations () =
  let engine =
    C.Engine.of_program (Test_datalog.subfamily_db ())
      Test_datalog.subfamily_program
  in
  let config = { S.Server.default_config with port = 0; workers = 2 } in
  let server = S.Server.start ~config engine in
  Fun.protect ~finally:(fun () -> S.Server.stop server) @@ fun () ->
  ignore
    (expect_ok "commit" (request server "V2 COMMIT_DELTA +Subfamily(12,13)"));
  let body =
    expect_ok "closure cite" (request server "CITE Q(C) :- Sub(11,C)")
  in
  Alcotest.(check bool) "the closure has the new edge" true
    (contains body {|"tuples":2|});
  let body = expect_ok "stats" (request server "STATS") in
  Alcotest.(check bool) "one derivation from scratch" true
    (contains body {|"datalog_scratch_derivations":1,|});
  Alcotest.(check bool) "one continued" true
    (contains body {|"datalog_continued_derivations":1,|})

(* v2 HEALTH's capability report, pinned byte for byte: every cite is
   served by the versioned engine on one domain (one shard), and a
   recursive program is reported as such. *)
let test_health_v2_capabilities () =
  let engine =
    C.Engine.of_program (Test_datalog.subfamily_db ())
      Test_datalog.subfamily_program
  in
  let config = { S.Server.default_config with port = 0; workers = 2 } in
  let server = S.Server.start ~config engine in
  Fun.protect ~finally:(fun () -> S.Server.stop server) @@ fun () ->
  let body = expect_ok "v2 health" (request server "V2 HEALTH") in
  let want =
    {|"backend":"versioned","shards":1,"supports_versions":true,"supports_recursion":true}|}
  in
  if not (contains body want) then
    Alcotest.failf "v2 HEALTH %s lacks %s" body want;
  with_server @@ fun _engine plain ->
  let body = expect_ok "plain v2 health" (request plain "V2 HEALTH") in
  Alcotest.(check bool) "no recursion without a program" true
    (contains body {|"supports_versions":true,"supports_recursion":false}|});
  let v1 = expect_ok "v1 health" (request plain "HEALTH") in
  Alcotest.(check bool) "v1 HEALTH carries no capabilities" false
    (contains v1 {|"backend"|})

(* [line] with every run of the characters [keep] accepts replaced by
   [by]. *)
let squash keep by line =
  let b = Buffer.create (String.length line) in
  String.iteri
    (fun i c ->
      if not (keep c) then Buffer.add_char b c
      else if i = 0 || not (keep line.[i - 1]) then Buffer.add_string b by)
    line;
  Buffer.contents b

(* v2 HEALTH's heap report: a [gc] object of five counters from
   [Gc.quick_stat], just before the capability report, each a
   plausible number. *)
let test_health_v2_gc () =
  with_server @@ fun _engine server ->
  let body = expect_ok "v2 health" (request server "V2 HEALTH") in
  let fields =
    [
      "heap_words";
      "top_heap_words";
      "minor_collections";
      "major_collections";
      "promoted_words";
    ]
  in
  let shape =
    Printf.sprintf {|,"gc":{%s},"backend":|}
      (String.concat "," (List.map (Printf.sprintf {|"%s":N|}) fields))
  in
  let digit c = c >= '0' && c <= '9' in
  Alcotest.(check bool)
    (Printf.sprintf "%s holds %s" body shape)
    true
    (contains (squash digit "N" body) shape);
  let gc = List.map (fun k -> (k, extract_int body k)) fields in
  let get k = List.assoc k gc in
  Alcotest.(check bool) "a heap" true (get "heap_words" > 0);
  Alcotest.(check bool) "top above heap" true
    (get "top_heap_words" >= get "heap_words");
  Alcotest.(check bool) "minor collections ran" true
    (get "minor_collections" > 0)

(* v1 HEALTH stays byte-identical to protocol v1: the same fields in the
   same order, no heap report, no durability or capability fields. *)
let test_health_v1_unchanged () =
  with_server @@ fun _engine server ->
  let body = expect_ok "v1 health" (request server "HEALTH") in
  let numeral c = (c >= '0' && c <= '9') || c = '.' in
  Alcotest.(check string) "v1 HEALTH"
    {|{"ok":true,"status":"serving","protocol":N,"protocols":[N,N],"uptime_s":N,"views":N,"relations":N,"tuples":N,"head_version":N}|}
    (squash numeral "N" body);
  Alcotest.(check (list int))
    "v1 HEALTH counts"
    [ 2; 3; 7; 12; 0 ]
    (List.map (extract_int body)
       [ "protocol"; "views"; "relations"; "tuples"; "head_version" ])

let suite =
  [
    Alcotest.test_case "cite over loopback" `Quick test_cite_roundtrip;
    Alcotest.test_case "error isolation" `Quick test_error_isolation;
    Alcotest.test_case "4 concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "versioned protocol roundtrip" `Quick
      test_versioned_roundtrip;
    Alcotest.test_case "cite_at during concurrent commits" `Quick
      test_versioned_concurrent_commits;
    Alcotest.test_case "v1 reads every acked commit" `Quick
      test_v1_reads_every_acked_commit;
    Alcotest.test_case "graceful shutdown on SIGTERM" `Quick
      test_graceful_shutdown;
    Alcotest.test_case "pipelined responses keep order" `Quick
      test_pipelining_order;
    Alcotest.test_case "cite_batch over the wire" `Quick test_cite_batch_wire;
    Alcotest.test_case "cite lines = lines rendered from cite" `Quick
      test_cite_lines_match_cite;
    Alcotest.test_case "untagged v1 stamp verifies" `Quick
      test_v1_stamp_verifies;
    Alcotest.test_case "overload sheds BUSY" `Quick test_busy_shedding;
    Alcotest.test_case "STATS counts derivations" `Quick
      test_stats_count_derivations;
    Alcotest.test_case "v2 HEALTH capabilities" `Quick
      test_health_v2_capabilities;
    Alcotest.test_case "v2 HEALTH reports the heap" `Quick test_health_v2_gc;
    Alcotest.test_case "v1 HEALTH unchanged" `Quick test_health_v1_unchanged;
  ]
