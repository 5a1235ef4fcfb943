(* The [datacite store] subcommands end to end: the real CLI binary run
   as a subprocess over a data directory, refusals that must leave the
   directory as it was, and interop with [datacite_server --data-dir]
   over the same directory in both directions. *)

module C = Dc_citation
module R = Dc_relational
module Crash = Test_crash_recovery

let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/datacite_cli.exe"

let contains = Crash.contains
let read_file = Test_storage.read_file
let write_file = Test_storage.write_file

let views_spec =
  {|view lambda FID. V1(FID,FName,Desc) :- Family(FID,FName,Desc);
cite lambda FID. CV1(FID,PName) :- Committee(FID,PName);
view V2(FID,FName,Desc) :- Family(FID,FName,Desc);
cite CV2(D) :- D="IUPHAR/BPS Guide to PHARMACOLOGY";
view V3(FID,Text) :- FamilyIntro(FID,Text);
cite CV3(D) :- D="IUPHAR/BPS Guide to PHARMACOLOGY";
|}

let query = "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)"

let delta_text =
  "+Family(31,Orexin,O1);\n+FamilyIntro(31,Orexin intro);\n\
   -FamilyIntro(21,Dopamine intro)\n"

(* A scratch directory holding the CSV database (the paper's example,
   as the server's --demo loads it), the view spec and delta files;
   [store] is a path inside it that does not exist yet. *)
type scratch = { root : string; data : string; views : string; store : string }

let with_scratch f =
  Test_storage.with_dir @@ fun root ->
  let data = Filename.concat root "data" in
  Unix.mkdir data 0o700;
  C.Spec.save_database (Testutil.paper_db ()) ~dir:data;
  let views = Filename.concat root "views.spec" in
  write_file views views_spec;
  f { root; data; views; store = Filename.concat root "store" }

(* Run [datacite store ARGS]: whether it exited 0, its stdout, its
   stderr. *)
let store_cmd s args =
  if not (Sys.file_exists cli) then
    Alcotest.failf "CLI binary not built at %s (cwd %s)" cli (Sys.getcwd ());
  let out = Filename.concat s.root "stdout" in
  let err = Filename.concat s.root "stderr" in
  let fd path = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o600 in
  let out_fd = fd out and err_fd = fd err in
  let dev_null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli
      (Array.of_list (cli :: "store" :: args))
      dev_null out_fd err_fd
  in
  List.iter Unix.close [ out_fd; err_fd; dev_null ];
  let _, status = Unix.waitpid [] pid in
  (status = Unix.WEXITED 0, read_file out, read_file err)

let ok_cmd s args =
  match store_cmd s args with
  | true, out, _ -> out
  | false, _, err ->
      Alcotest.failf "store %s failed: %s" (String.concat " " args) err

(* Refused with a message naming [what]. *)
let refused s args what =
  match store_cmd s args with
  | true, out, _ ->
      Alcotest.failf "store %s succeeded: %s" (String.concat " " args) out
  | false, _, err ->
      Alcotest.(check bool)
        (Printf.sprintf "store %s names %S: %s" (List.hd args) what err)
        true (contains err what)

(* Every file under the directory with its bytes. *)
let rec dir_bytes dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then
           List.map (fun (g, b) -> (Filename.concat f g, b)) (dir_bytes path)
         else [ (f, read_file path) ])

let check_unchanged name before dir =
  Alcotest.(check (list (pair string string))) name before (dir_bytes dir)

let commit_file s name text =
  let path = Filename.concat s.root name in
  write_file path text;
  path

let test_lifecycle () =
  with_scratch @@ fun s ->
  let out = ok_cmd s [ "init"; "--data"; s.data; s.store ] in
  Alcotest.(check bool) "init reports version 0" true
    (contains out "at version 0");
  let out = ok_cmd s [ "commit"; s.store; commit_file s "d1" delta_text ] in
  Alcotest.(check string) "commit" "committed version 1\n" out;
  Alcotest.(check string) "log" "v0: 12 tuples\nv1: 13 tuples\n"
    (ok_cmd s [ "log"; s.store ]);
  let cited = ok_cmd s [ "cite"; s.store; "--views"; s.views; query ] in
  Alcotest.(check bool) "cites the head" true
    (contains cited "cited at version 1");
  Alcotest.(check bool) "head answer" true (contains cited {|("Orexin")|});
  Alcotest.(check bool) "head digest" true (contains cited ":v2");
  let old =
    ok_cmd s [ "resolve"; s.store; "--views"; s.views; "--at"; "0"; query ]
  in
  Alcotest.(check bool) "resolves at version 0" true
    (contains old "answer as of version 0:");
  Alcotest.(check bool) "version 0 answer" true
    (contains old {|("Dopamine receptors")|} && not (contains old "Orexin"));
  refused s
    [ "resolve"; s.store; "--views"; s.views; "--at"; "7"; query ]
    "version 7"

let test_refusals_leave_directory () =
  with_scratch @@ fun s ->
  (* a subcommand on a directory with no store creates nothing *)
  refused s [ "log"; s.store ] s.store;
  Alcotest.(check bool) "missing store not created" false
    (Sys.file_exists s.store);
  ignore (ok_cmd s [ "init"; "--data"; s.data; s.store ]);
  ignore (ok_cmd s [ "commit"; s.store; commit_file s "d1" delta_text ]);
  let before = dir_bytes s.store in
  let log = ok_cmd s [ "log"; s.store ] in
  refused s [ "init"; "--data"; s.data; s.store ] "already holds a store";
  check_unchanged "double init" before s.store;
  refused s [ "commit"; s.store; commit_file s "d2" "+Nope(1)" ] "Nope";
  check_unchanged "unknown relation" before s.store;
  (* a string with a comma is outside the wire format *)
  refused s
    [ "commit"; s.store; commit_file s "d3" "+Committee(31,Some, One)" ]
    "Committee";
  check_unchanged "string outside the format" before s.store;
  Alcotest.(check string) "head did not move" log (ok_cmd s [ "log"; s.store ])

(* One process at a time: while the server has the directory open, a
   read and a commit from the CLI are both refused, and the log keeps
   every byte the server acknowledged. *)
let test_refused_while_server_runs () =
  with_scratch @@ fun s ->
  ignore (ok_cmd s [ "init"; "--data"; s.data; s.store ]);
  let wal = Filename.concat s.store "wal.log" in
  let p = Crash.spawn_server [ "--data-dir"; s.store; "--workers"; "2" ] in
  (try
     Crash.with_conn p.Crash.port (fun conn ->
         ignore
           (Crash.expect_ok "commit"
              (Crash.req conn "V2 COMMIT_DELTA +Family(32,Galanin,G1)")));
     let before = read_file wal in
     refused s [ "log"; s.store ] "in use";
     refused s [ "commit"; s.store; commit_file s "d1" delta_text ] "in use";
     Alcotest.(check string) "WAL bytes unchanged" before (read_file wal)
   with e ->
     Crash.kill_hard p;
     raise e);
  Unix.kill p.Crash.pid Sys.sigterm;
  ignore (Crash.wait_exit p);
  Alcotest.(check string) "the server's commit survives"
    "v0: 12 tuples\nv1: 13 tuples\n"
    (ok_cmd s [ "log"; s.store ])

(* A directory in the format the CLI used to write (a CSV base plus
   delta files) is refused by name, by [init] as well. *)
let test_retired_format_refused () =
  with_scratch @@ fun s ->
  Unix.mkdir s.store 0o700;
  C.Spec.save_database (Testutil.paper_db ()) ~dir:(Filename.concat s.store "base");
  Unix.mkdir (Filename.concat s.store "deltas") 0o700;
  let before = dir_bytes s.store in
  refused s [ "log"; s.store ] "retired format";
  refused s [ "init"; "--data"; s.data; s.store ] "retired format";
  check_unchanged "retired store" before s.store

let cite_at v = Printf.sprintf "V2 CITE_AT %d %s" v query

(* Open the store in process, as the CLI and the server do, and report
   whether recovery checked it against its newest snapshot's digest. *)
let digest_verified dir =
  match
    C.Versioned_engine.open_durable ~dir (fun db -> C.Engine.create db [])
  with
  | Error e -> Alcotest.fail e
  | Ok (_, st, recovery) ->
      Dc_storage.Store.close st;
      Option.bind recovery (fun r -> r.Dc_storage.Store.digest_verified)

(* CLI → server: the server recovers a directory the CLI made, with the
   recovered version hashing to what the CLI committed; server → CLI:
   the CLI lists what the server committed. *)
let test_server_interop () =
  with_scratch @@ fun s ->
  ignore (ok_cmd s [ "init"; "--data"; s.data; s.store ]);
  ignore (ok_cmd s [ "commit"; s.store; commit_file s "d1" delta_text ]);
  let expected_v1 =
    let schemas = Dc_gtopdb.Schema_def.all_schemas in
    match R.Delta_wire.parse_typed ~schemas delta_text with
    | Ok d -> C.Fixity.digest_v2 (R.Delta.apply (Testutil.paper_db ()) d)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (option bool)) "CLI store verified" (Some true)
    (digest_verified s.store);
  let p = Crash.spawn_server [ "--data-dir"; s.store; "--workers"; "2" ] in
  (try
     Crash.with_conn p.Crash.port @@ fun conn ->
     let cited = Crash.expect_ok "cite_at" (Crash.req conn (cite_at 1)) in
     Alcotest.(check bool) "server cites version 1" true
       (contains cited {|"version":1|});
     Alcotest.(check bool) "server answer" true
       (contains cited {|"tuples":2|});
     Alcotest.(check string) "server digest = CLI commit" expected_v1
       (Crash.extract_str cited "digest");
     ignore
       (Crash.expect_ok "commit"
          (Crash.req conn "V2 COMMIT_DELTA +Family(32,Galanin,G1)"))
   with e ->
     Crash.kill_hard p;
     raise e);
  Unix.kill p.Crash.pid Sys.sigterm;
  ignore (Crash.wait_exit p);
  Alcotest.(check string) "CLI lists the server's commit"
    "v0: 12 tuples\nv1: 13 tuples\nv2: 14 tuples\n"
    (ok_cmd s [ "log"; s.store ]);
  Alcotest.(check (option bool)) "server's drain snapshot verified"
    (Some true) (digest_verified s.store)

let suite =
  [
    Alcotest.test_case "init, commit, log, cite, resolve" `Quick
      test_lifecycle;
    Alcotest.test_case "refusals leave the directory" `Quick
      test_refusals_leave_directory;
    Alcotest.test_case "shared with the server" `Quick test_server_interop;
    Alcotest.test_case "refused while the server runs" `Quick
      test_refused_while_server_runs;
    Alcotest.test_case "retired format refused" `Quick
      test_retired_format_refused;
  ]
