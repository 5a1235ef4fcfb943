(* Crash recovery end to end: a real datacite-server process with a
   --data-dir is killed with SIGKILL mid-service and restarted over the
   same directory; every pre-crash version must answer CITE_AT / VERIFY
   identically, registrations must be re-armed, and a graceful SIGTERM
   must leave a drain snapshot covering the head. *)

module S = Dc_server
module Client = Dc_oracle.Client

(* Resolve the server binary next to this test executable so the test
   works under both `dune runtest` and `dune exec` from the repo root. *)
let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/datacite_server.exe"

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec at i = i + m <= n && (String.sub line i m = sub || at (i + 1)) in
  at 0

(* A response minus its trailing ms field (same normalization as the
   in-process server tests). *)
let sans_ms line =
  let rec find i =
    if i + 6 > String.length line then None
    else if String.sub line i 6 = {|,"ms":|} then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub line 0 i | None -> line

let tmp_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dc-test-crash-%d-%d" (Unix.getpid ()) !ctr)
    in
    Unix.mkdir d 0o700;
    d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

type proc = { pid : int; port : int; stdout : in_channel }

(* Spawn the real server binary on an ephemeral port and parse the
   bound port from its banner line. *)
let spawn_server args =
  if not (Sys.file_exists exe) then
    Alcotest.failf "server binary not built at %s (cwd %s)" exe (Sys.getcwd ());
  (* close-on-exec: the server gets the write end as its stdout and no
     copy of the read end, so closing [stdout] here closes the pipe *)
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list (exe :: "--demo" :: "--port" :: "0" :: args) in
  let pid = Unix.create_process exe argv dev_null out_w Unix.stderr in
  Unix.close out_w;
  Unix.close dev_null;
  let stdout = Unix.in_channel_of_descr out_r in
  let rec banner () =
    let line = try input_line stdout with End_of_file ->
      Alcotest.failf "server exited before printing its banner"
    in
    if contains line "listening on" then
      Scanf.sscanf line "datacite-server listening on %s@:%d" (fun _ p -> p)
    else banner ()
  in
  let port = banner () in
  { pid; port; stdout }

let wait_exit p =
  let _, status = Unix.waitpid [] p.pid in
  close_in_noerr p.stdout;
  status

let kill_hard p =
  Unix.kill p.pid Sys.sigkill;
  ignore (wait_exit p)

let with_conn port f =
  (* the accept thread may need a beat on slow machines *)
  let rec connect tries =
    try Client.connect ~port ()
    with e ->
      if tries = 0 then raise e
      else begin
        Unix.sleepf 0.05;
        connect (tries - 1)
      end
  in
  let conn = connect 40 in
  Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> f conn)

let req conn line =
  match Client.request conn line with
  | Some resp -> resp
  | None -> Alcotest.failf "connection closed on %S" line

let expect_ok name resp =
  if String.length resp >= 4 && String.sub resp 0 4 = "ERR " then
    Alcotest.failf "%s: unexpected %s" name resp
  else resp

let query = "Q(N) :- Family(F,N,D)"

let cite_at v = Printf.sprintf "V2 CITE_AT %d %s" v query

let extract_str line key =
  let marker = Printf.sprintf "%S:\"" key in
  let rec find i =
    if i + String.length marker > String.length line then
      Alcotest.failf "no %s in %s" key line
    else if String.sub line i (String.length marker) = marker then
      i + String.length marker
    else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from line start '"' in
  String.sub line start (stop - start)

let test_kill9_recovery () =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = spawn_server [ "--data-dir"; dir; "--workers"; "2" ] in
  let before =
    with_conn p.port @@ fun conn ->
    ignore (expect_ok "register" (req conn ("V2 REGISTER " ^ query)));
    for i = 1 to 3 do
      ignore
        (expect_ok "commit"
           (req conn
              (Printf.sprintf
                 "V2 COMMIT_DELTA +Family(%d,CrashFam%d,D%d);+FamilyIntro(%d,intro)"
                 (40 + i) i i (40 + i))))
    done;
    let versions = expect_ok "versions" (req conn "V2 VERSIONS") in
    let cites =
      List.map (fun v -> (v, sans_ms (expect_ok "cite_at" (req conn (cite_at v)))))
        [ 0; 1; 2; 3 ]
    in
    let digests = List.map (fun (v, c) -> (v, extract_str c "digest")) cites in
    (sans_ms versions, cites, digests)
  in
  (* SIGKILL: no drain, no final snapshot — recovery must come from the
     WAL alone *)
  kill_hard p;
  let p2 = spawn_server [ "--data-dir"; dir; "--workers"; "2" ] in
  Fun.protect ~finally:(fun () -> kill_hard p2) @@ fun () ->
  with_conn p2.port @@ fun conn ->
  let versions0, cites0, digests0 = before in
  (* the whole version history is back *)
  let versions = sans_ms (expect_ok "versions" (req conn "V2 VERSIONS")) in
  Alcotest.(check string) "VERSIONS identical after crash" versions0 versions;
  (* every pre-crash citation is byte-identical (modulo ms) *)
  List.iter
    (fun (v, cite0) ->
      let cite = sans_ms (expect_ok "cite_at" (req conn (cite_at v))) in
      Alcotest.(check string)
        (Printf.sprintf "CITE_AT %d identical after crash" v)
        cite0 cite)
    cites0;
  (* every pre-crash digest still verifies *)
  List.iter
    (fun (v, digest) ->
      let verify =
        expect_ok "verify" (req conn (Printf.sprintf "V2 VERIFY %d %s" v digest))
      in
      Alcotest.(check bool)
        (Printf.sprintf "VERIFY %d after crash" v)
        true
        (contains verify {|"valid":true|}))
    digests0;
  (* the registration was re-armed from the WAL *)
  let warm = expect_ok "head cite" (req conn (cite_at 3)) in
  Alcotest.(check bool) "registration re-armed" true
    (contains warm {|"from_registration":true|});
  (* v2 HEALTH reports the durable state; v1 HEALTH is unchanged *)
  let health2 = expect_ok "v2 health" (req conn "V2 HEALTH") in
  Alcotest.(check bool) "data_dir reported" true
    (contains health2 (Printf.sprintf {|"data_dir":%S|} dir));
  Alcotest.(check bool) "wal_enabled reported" true
    (contains health2 {|"wal_enabled":true|});
  Alcotest.(check bool) "last_snapshot_version reported" true
    (contains health2 {|"last_snapshot_version":|});
  let health1 = expect_ok "v1 health" (req conn "HEALTH") in
  Alcotest.(check bool) "v1 health has no durability fields" false
    (contains health1 {|"wal_enabled"|})

let test_graceful_drain_snapshot () =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = spawn_server [ "--data-dir"; dir; "--workers"; "2" ] in
  with_conn p.port (fun conn ->
      for i = 1 to 2 do
        ignore
          (expect_ok "commit"
             (req conn
                (Printf.sprintf "V2 COMMIT_DELTA +Family(%d,DrainFam%d,D)"
                   (50 + i) i)))
      done);
  Unix.kill p.pid Sys.sigterm;
  Alcotest.(check bool) "clean stop exits 0" true
    (wait_exit p = Unix.WEXITED 0);
  (* graceful stop wrote a snapshot covering the head (version 2) *)
  Alcotest.(check bool) "drain snapshot exists" true
    (Sys.file_exists (Filename.concat dir "snapshot-000000002.snap"));
  (* a restart over the drained dir recovers instantly and still serves *)
  let p2 =
    spawn_server [ "--data-dir"; dir; "--recovery"; "fast"; "--workers"; "2" ]
  in
  Fun.protect ~finally:(fun () -> kill_hard p2) @@ fun () ->
  with_conn p2.port @@ fun conn ->
  let versions = expect_ok "versions" (req conn "V2 VERSIONS") in
  Alcotest.(check bool) "head 2 after fast restart" true
    (contains versions {|"head":2|})

(* A supervisor may read the banner and close its end of stdout: the
   status line printed on the way out then cannot be written, which
   must not turn a clean SIGTERM stop into an error. *)
let test_sigterm_stop_without_stdout () =
  let p = spawn_server [] in
  close_in p.stdout;
  Unix.kill p.pid Sys.sigterm;
  let _, status = Unix.waitpid [] p.pid in
  Alcotest.(check bool) "exits 0" true (status = Unix.WEXITED 0)

let test_unusable_data_dir_fails_with_context () =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "occupied" in
  let oc = open_out path in
  output_string oc "a regular file";
  close_out oc;
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--demo"; "--port"; "0"; "--data-dir"; path |]
      dev_null Unix.stdout out_w
  in
  Unix.close out_w;
  Unix.close dev_null;
  let stderr_out = Unix.in_channel_of_descr out_r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line stderr_out :: !lines
     done
   with End_of_file -> ());
  close_in_noerr stderr_out;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "exits nonzero" true (status = Unix.WEXITED 1);
  let err = String.concat "\n" (List.rev !lines) in
  Alcotest.(check bool) "error names the path" true (contains err path);
  Alcotest.(check bool) "error says why" true (contains err "not a directory")

let suite =
  [
    Alcotest.test_case "kill -9 then recover" `Quick test_kill9_recovery;
    Alcotest.test_case "graceful drain writes a snapshot" `Quick
      test_graceful_drain_snapshot;
    Alcotest.test_case "unusable data-dir fails with context" `Quick
      test_unusable_data_dir_fails_with_context;
    Alcotest.test_case "SIGTERM stop with stdout closed" `Quick
      test_sigterm_stop_without_stdout;
  ]
