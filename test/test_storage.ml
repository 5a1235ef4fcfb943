(* The durable version store: WAL codec roundtrips and corruption
   (property-tested), snapshot codec, and store lifecycle — init,
   reopen, torn tails, snapshot fallback, contextual I/O errors. *)

open Testutil
module Sg = Dc_storage
module VS = R.Version_store

let rs_schemas () =
  let db = rs_db () in
  List.filter_map (R.Database.schema db) (R.Database.relation_names db)

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec at i = i + m <= n && (String.sub line i m = sub || at (i + 1)) in
  at 0

(* Fresh scratch directory per test, removed afterwards. *)
let tmp_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dc-test-storage-%d-%d" (Unix.getpid ()) !ctr)
    in
    Unix.mkdir d 0o700;
    d

let rec rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir d);
    Unix.rmdir d
  end

let with_dir f =
  let d = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---------------- generators ---------------- *)

(* Wire-safe values only: the delta wire format excludes [,;()] in
   strings (documented in Delta_wire); columns are typed by rs_db. *)
let gen_word =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 1 8)
         (map (String.make 1) (char_range 'a' 'z'))))

let gen_delta =
  QCheck.Gen.(
    let r_change =
      map2 (fun a b -> (`R, int_tuple [ a; b ])) small_int small_int
    in
    let s_change =
      map2
        (fun a w -> (`S, tuple [ R.Value.Int a; R.Value.Str w ]))
        small_int gen_word
    in
    let change = pair bool (oneof [ r_change; s_change ]) in
    map
      (fun changes ->
        List.fold_left
          (fun d (ins, (rel, t)) ->
            let rel = match rel with `R -> "R" | `S -> "S" in
            if ins then R.Delta.insert d rel t else R.Delta.delete d rel t)
          R.Delta.empty changes)
      (list_size (int_range 1 10) change))

let gen_record =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun version at delta -> Sg.Wal.Commit { version; at; delta })
          small_nat small_nat gen_delta;
        map (fun w -> Sg.Wal.Register ("Q(X) :- R(X," ^ w ^ ")")) gen_word;
      ])

let arb_record = QCheck.make ~print:Sg.Wal.encode_record gen_record

(* ---------------- frame codec ---------------- *)

let prop_frame_roundtrip =
  qtest "frame roundtrip" QCheck.(string_of_size Gen.(int_range 0 200))
    (fun payload ->
      match Sg.Frame.read (Sg.Frame.to_string payload) 0 with
      | Sg.Frame.Frame (p, off) ->
          p = payload && off = 8 + String.length payload
      | _ -> false)

let prop_frame_detects_flip =
  qtest "frame detects any byte flip"
    QCheck.(
      pair (string_of_size Gen.(int_range 1 100)) (int_range 0 10_000))
    (fun (payload, seed) ->
      let framed = Bytes.of_string (Sg.Frame.to_string payload) in
      let pos = seed mod Bytes.length framed in
      Bytes.set framed pos (Char.chr (Char.code (Bytes.get framed pos) lxor 0x5a));
      match Sg.Frame.read (Bytes.to_string framed) 0 with
      | Sg.Frame.Corrupt _ -> true
      | Sg.Frame.Frame (p, _) -> p <> payload (* CRC collision: never seen *)
      | Sg.Frame.End -> false)

(* ---------------- WAL record codec ---------------- *)

let record_equal a b = Sg.Wal.encode_record a = Sg.Wal.encode_record b

let prop_record_roundtrip =
  qtest "wal record roundtrip" arb_record (fun r ->
      match Sg.Wal.decode_record ~schemas:(rs_schemas ()) (Sg.Wal.encode_record r) with
      | Ok r' -> record_equal r r'
      | Error _ -> false)

let wal_string records =
  let buf = Buffer.create 256 in
  Buffer.add_string buf Sg.Wal.magic;
  List.iter (fun r -> Sg.Frame.write buf (Sg.Wal.encode_record r)) records;
  Buffer.contents buf

let prop_truncation_yields_prefix =
  qtest "truncated wal scans to a valid prefix"
    QCheck.(
      pair
        (make ~print:(fun rs -> string_of_int (List.length rs))
           QCheck.Gen.(list_size (int_range 1 8) gen_record))
        (int_range 0 10_000))
    (fun (records, seed) ->
      let full = wal_string records in
      (* any cut past the magic: the scan must not raise and must
         return a prefix of the original records *)
      let cut = 8 + (seed mod (String.length full - 7)) in
      match
        Sg.Wal.scan_string ~schemas:(rs_schemas ()) (String.sub full 0 cut)
      with
      | Error _ -> false
      | Ok scan ->
          scan.Sg.Wal.valid_bytes <= cut
          && List.length scan.Sg.Wal.records <= List.length records
          && List.for_all2 record_equal scan.Sg.Wal.records
               (List.filteri
                  (fun i _ -> i < List.length scan.Sg.Wal.records)
                  records))

let prop_bitflip_yields_prefix =
  qtest "bit-flipped wal scans to a valid prefix"
    QCheck.(
      pair
        (make ~print:(fun rs -> string_of_int (List.length rs))
           QCheck.Gen.(list_size (int_range 1 8) gen_record))
        (int_range 0 10_000))
    (fun (records, seed) ->
      let full = Bytes.of_string (wal_string records) in
      let pos = 8 + (seed mod (Bytes.length full - 8)) in
      Bytes.set full pos
        (Char.chr (Char.code (Bytes.get full pos) lxor 0x01));
      match Sg.Wal.scan_string ~schemas:(rs_schemas ()) (Bytes.to_string full) with
      | Error _ -> false
      | Ok scan ->
          List.length scan.Sg.Wal.records <= List.length records
          && List.for_all2 record_equal scan.Sg.Wal.records
               (List.filteri
                  (fun i _ -> i < List.length scan.Sg.Wal.records)
                  records))

let test_garbage_between_records () =
  let r1 = Sg.Wal.Register "Q(X) :- R(X,Y)" in
  let r2 = Sg.Wal.Commit { version = 1; at = 2; delta = R.Delta.empty } in
  let buf = Buffer.create 64 in
  Buffer.add_string buf Sg.Wal.magic;
  Sg.Frame.write buf (Sg.Wal.encode_record r1);
  let valid = Buffer.length buf in
  Buffer.add_string buf "!!garbage between records!!";
  Sg.Frame.write buf (Sg.Wal.encode_record r2);
  let scan =
    ok "scan" (Sg.Wal.scan_string ~schemas:(rs_schemas ()) (Buffer.contents buf))
  in
  Alcotest.(check int) "only the first record survives" 1
    (List.length scan.Sg.Wal.records);
  Alcotest.(check bool) "first record intact" true
    (record_equal r1 (List.hd scan.Sg.Wal.records));
  Alcotest.(check int) "valid_bytes stops at the garbage" valid
    scan.Sg.Wal.valid_bytes;
  Alcotest.(check bool) "scan reports why it stopped" true
    (scan.Sg.Wal.corrupt <> None)

let test_foreign_magic_is_an_error () =
  match Sg.Wal.scan_string ~schemas:(rs_schemas ()) "NOTAWAL!rest" with
  | Error e -> Alcotest.(check bool) "non-empty reason" true (e <> "")
  | Ok _ -> Alcotest.fail "foreign file must not scan"

(* ---------------- snapshot codec ---------------- *)

let test_snapshot_roundtrip () =
  let snap =
    {
      Sg.Snapshot.version = 7;
      at = 1234;
      digest = "sha256:abc";
      registrations = [ "Q(X) :- R(X,Y)"; "P(Y) :- S(Y,C)" ];
      db = rs_db ();
    }
  in
  let snap' = ok "decode" (Sg.Snapshot.decode (Sg.Snapshot.encode snap)) in
  Alcotest.(check int) "version" snap.Sg.Snapshot.version snap'.Sg.Snapshot.version;
  Alcotest.(check int) "at" snap.Sg.Snapshot.at snap'.Sg.Snapshot.at;
  Alcotest.(check string) "digest" snap.Sg.Snapshot.digest snap'.Sg.Snapshot.digest;
  Alcotest.(check (list string))
    "registrations" snap.Sg.Snapshot.registrations snap'.Sg.Snapshot.registrations;
  Alcotest.(check bool) "database equal" true
    (R.Database.equal snap.Sg.Snapshot.db snap'.Sg.Snapshot.db)

let prop_snapshot_db_roundtrip =
  qtest "snapshot roundtrips any delta-mutated db"
    (QCheck.make ~print:R.Delta_wire.render gen_delta)
    (fun delta ->
      (* inserts may reference tuples the db lacks for deletes; apply
         inserts only to stay within Delta.apply's domain *)
      let db =
        List.fold_left
          (fun db (rel, changes) ->
            List.fold_left
              (fun db -> function
                | R.Delta.Insert t -> (
                    try R.Database.insert db rel t with _ -> db)
                | R.Delta.Delete _ -> db)
              db changes)
          (rs_db ()) (R.Delta.changes delta)
      in
      let snap =
        { Sg.Snapshot.version = 1; at = 2; digest = ""; registrations = []; db }
      in
      match Sg.Snapshot.decode (Sg.Snapshot.encode snap) with
      | Ok s -> R.Database.equal db s.Sg.Snapshot.db
      | Error _ -> false)

let test_snapshot_file_corruption () =
  with_dir @@ fun dir ->
  let snap =
    {
      Sg.Snapshot.version = 3;
      at = 9;
      digest = "d";
      registrations = [];
      db = rs_db ();
    }
  in
  let path = ok "write" (Sg.Snapshot.write ~dir snap) in
  ignore (ok "read back" (Sg.Snapshot.read path));
  let bytes = Bytes.of_string (read_file path) in
  (* flip one payload byte: the CRC frame must reject the file *)
  let pos = Bytes.length bytes - 3 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0xff));
  write_file path (Bytes.to_string bytes);
  (match Sg.Snapshot.read path with
  | Error e ->
      Alcotest.(check bool) "error carries the path" true (contains e path)
  | Ok _ -> Alcotest.fail "corrupt snapshot must not read");
  (* truncation is also rejected *)
  write_file path (String.sub (Bytes.to_string bytes) 0 (Bytes.length bytes / 2));
  match Sg.Snapshot.read path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated snapshot must not read"

(* The empty directory name puts the snapshot file in the working
   directory, but the directory itself cannot be opened to sync the
   rename: the write must fail rather than claim durability. *)
let test_snapshot_dir_fsync_failure () =
  with_dir @@ fun dir ->
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  let snap =
    { Sg.Snapshot.version = 1; at = 2; digest = ""; registrations = []; db = rs_db () }
  in
  match Sg.Snapshot.write ~dir:"" snap with
  | Ok path -> Alcotest.failf "unsynced rename reported durable: %s" path
  | Error e ->
      Alcotest.(check bool) "error names the snapshot" true
        (contains e "snapshot-000000001.snap")

(* fsync(2) on /dev/null fails with EINVAL, so closing a dirty WAL
   writer over it exercises the close-time failure path. *)
let test_wal_close_fsync_failure_counted () =
  let module M = Dc_citation.Metrics in
  let failures () = M.count M.default M.Key.wal_close_fsync_failures in
  let before = failures () in
  let w =
    ok "open"
      (Sg.Wal.open_existing ~path:"/dev/null" ~fsync:Sg.Wal.Never
         ~valid_bytes:0)
  in
  ok "append" (Sg.Wal.append w (Sg.Wal.Register "Q(X) :- R(X,Y)"));
  Sg.Wal.close w;
  Alcotest.(check int) "failure counted" (before + 1) (failures ());
  Sg.Wal.close w;
  Alcotest.(check int) "second close is a no-op" (before + 1) (failures ())

(* ---------------- store lifecycle ---------------- *)

let digest = Dc_citation.Fixity.digest_db

let delta_i i =
  R.Delta.insert R.Delta.empty "R" (int_tuple [ 100 + i; 200 + i ])

(* Build a store of [n] commits on a fresh dir; returns the final
   version store (head = n). *)
let build_store st vs n =
  let rec go vs i =
    if i > n then vs
    else begin
      let db' = VS.apply_head vs (delta_i i) in
      let vs', v = VS.commit vs db' in
      Alcotest.(check int) "committed version" i v;
      ok "append_commit"
        (Sg.Store.append_commit st ~version:v
           ~at:(Option.get (VS.timestamp vs' v))
           (delta_i i));
      go vs' (i + 1)
    end
  in
  go vs 1

let test_store_lifecycle () =
  with_dir @@ fun dir ->
  let db = rs_db () in
  let st, recovered = ok "open fresh" (Sg.Store.open_ ~digest ~dir ~db ()) in
  Alcotest.(check bool) "fresh dir has nothing to recover" true
    (recovered = None);
  let vs = build_store st (VS.create db) 3 in
  ok "append_register" (Sg.Store.append_register st "Q(X) :- R(X,Y)");
  Sg.Store.close st;
  (* reopen: full recovery rebuilds every version with its timestamp *)
  let st2, recovered = ok "reopen" (Sg.Store.open_ ~digest ~dir ~db ()) in
  let r = Option.get recovered in
  Alcotest.(check (list int)) "all versions back" [ 0; 1; 2; 3 ]
    (List.sort compare (VS.versions r.Sg.Store.store));
  Alcotest.(check int) "replayed" 3 r.Sg.Store.replayed;
  Alcotest.(check int) "nothing discarded" 0 r.Sg.Store.discarded_bytes;
  Alcotest.(check (list string))
    "registration recovered" [ "Q(X) :- R(X,Y)" ] r.Sg.Store.registrations;
  Alcotest.(check bool) "head database identical" true
    (R.Database.equal (VS.head_db vs) (VS.head_db r.Sg.Store.store));
  List.iter
    (fun v ->
      Alcotest.(check (option int))
        (Printf.sprintf "timestamp of v%d" v)
        (VS.timestamp vs v)
        (VS.timestamp r.Sg.Store.store v))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "every version's contents identical" true
    (List.for_all
       (fun v ->
         R.Database.equal (VS.checkout_exn vs v)
           (VS.checkout_exn r.Sg.Store.store v))
       [ 0; 1; 2; 3 ]);
  Sg.Store.close st2

(* A directory has one handle at a time: a second open is refused
   without touching the log, and the directory opens again once the
   first handle is closed.  (Other processes are kept out by [lockf];
   see the CLI tests.) *)
let test_store_open_once () =
  with_dir @@ fun dir ->
  let db = rs_db () in
  let st, _ = ok "open" (Sg.Store.open_ ~digest ~dir ~db ()) in
  ignore (build_store st (VS.create db) 1);
  let wal = read_file (Filename.concat dir "wal.log") in
  (match Sg.Store.open_ ~digest ~dir () with
  | Ok _ -> Alcotest.fail "a second handle opened the directory"
  | Error e ->
      Alcotest.(check bool) (Printf.sprintf "%S names the dir" e) true
        (contains e dir));
  Alcotest.(check string) "log untouched" wal
    (read_file (Filename.concat dir "wal.log"));
  Sg.Store.close st;
  let st, r = ok "reopen after close" (Sg.Store.open_ ~digest ~dir ()) in
  Alcotest.(check int) "commit recovered" 1
    (Option.get r).Sg.Store.replayed;
  Sg.Store.close st

(* A commit the WAL could not replay as itself is refused before a byte
   is written; anything acknowledged recovers exactly.  [refused] is the
   text the error must name the offending value by. *)
let test_wal_value ?refused tuple () =
  with_dir @@ fun dir ->
  let db =
    R.Database.create_relation R.Database.empty
      (R.Schema.make "V"
         R.Schema.[ attr ~ty:R.Value.TFloat "F"; attr ~ty:R.Value.TStr "S" ])
  in
  let st, _ = ok "open" (Sg.Store.open_ ~digest ~dir ~db ()) in
  let wal_size () = (Unix.stat (Filename.concat dir "wal.log")).Unix.st_size in
  let size_before = wal_size () in
  let delta = R.Delta.insert R.Delta.empty "V" (R.Tuple.make tuple) in
  let vs = VS.create db in
  let vs', v = VS.commit vs (VS.apply_head vs delta) in
  let at = Option.get (VS.timestamp vs' v) in
  let head =
    match (refused, Sg.Store.append_commit st ~version:v ~at delta) with
    | None, Ok () -> VS.head_db vs'
    | Some shown, Error e ->
        Alcotest.(check bool) (Printf.sprintf "%S names %s" e shown) true
          (contains e shown);
        Alcotest.(check int) "nothing logged" size_before (wal_size ());
        db
    | None, Error e -> Alcotest.failf "refused a replayable commit: %s" e
    | Some _, Ok () -> Alcotest.fail "acknowledged a commit that cannot replay"
  in
  Sg.Store.close st;
  let st, recovered = ok "reopen" (Sg.Store.open_ ~digest ~dir ~db ()) in
  Sg.Store.close st;
  Alcotest.(check bool) "recovered head identical" true
    (R.Database.equal head (VS.head_db (Option.get recovered).Sg.Store.store))

let test_snapshot_and_fast_recovery () =
  with_dir @@ fun dir ->
  let db = rs_db () in
  let st, _ = ok "open" (Sg.Store.open_ ~digest ~dir ~db ()) in
  let vs = build_store st (VS.create db) 4 in
  let covered =
    ok "snapshot" (Sg.Store.write_snapshot st ~store:vs ~registrations:[ "Q(X) :- R(X,Y)" ])
  in
  Alcotest.(check int) "snapshot covers the head" 4 covered;
  Alcotest.(check int) "last_snapshot_version" 4 (Sg.Store.last_snapshot_version st);
  (* no-op when the head has not advanced *)
  Alcotest.(check int) "idempotent" 4
    (ok "re-snapshot" (Sg.Store.write_snapshot st ~store:vs ~registrations:[]));
  Sg.Store.close st;
  (* fast: seed from snapshot 4, replay nothing *)
  let st2, r =
    ok "fast reopen" (Sg.Store.open_ ~digest ~mode:Sg.Store.Fast ~dir ~db ())
  in
  let r = Option.get r in
  Alcotest.(check int) "seeded from the latest snapshot" 4 r.Sg.Store.seeded_from;
  Alcotest.(check int) "nothing replayed" 0 r.Sg.Store.replayed;
  Alcotest.(check (list int)) "only the snapshot version" [ 4 ]
    (VS.versions r.Sg.Store.store);
  Alcotest.(check bool) "digest verified" true
    (r.Sg.Store.digest_verified = Some true);
  Alcotest.(check bool) "head database identical" true
    (R.Database.equal (VS.head_db vs) (VS.head_db r.Sg.Store.store));
  Alcotest.(check (list string))
    "registrations from the snapshot" [ "Q(X) :- R(X,Y)" ] r.Sg.Store.registrations;
  Sg.Store.close st2;
  (* full: seed from snapshot 0 and replay everything despite the
     newer snapshot *)
  let st3, r =
    ok "full reopen" (Sg.Store.open_ ~digest ~mode:Sg.Store.Full ~dir ~db ())
  in
  let r = Option.get r in
  Alcotest.(check int) "seeded from the floor" 0 r.Sg.Store.seeded_from;
  Alcotest.(check int) "whole wal replayed" 4 r.Sg.Store.replayed;
  Alcotest.(check (list int)) "all versions back" [ 0; 1; 2; 3; 4 ]
    (List.sort compare (VS.versions r.Sg.Store.store));
  Alcotest.(check bool) "digest verified against snapshot 4" true
    (r.Sg.Store.digest_verified = Some true);
  Sg.Store.close st3

let test_torn_tail_truncated_on_reopen () =
  with_dir @@ fun dir ->
  let db = rs_db () in
  let st, _ = ok "open" (Sg.Store.open_ ~digest ~dir ~db ()) in
  ignore (build_store st (VS.create db) 2);
  Sg.Store.close st;
  (* simulate a crash mid-append: garbage after the last valid record *)
  let wal = Filename.concat dir "wal.log" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 wal in
  output_string oc "torn-half-record";
  close_out oc;
  let before = (Unix.stat wal).Unix.st_size in
  let st2, r = ok "reopen" (Sg.Store.open_ ~digest ~dir ~db ()) in
  let r = Option.get r in
  Alcotest.(check int) "both commits survive" 2 r.Sg.Store.replayed;
  Alcotest.(check int) "tail measured" 16 r.Sg.Store.discarded_bytes;
  Alcotest.(check bool) "file physically truncated" true
    ((Unix.stat wal).Unix.st_size = before - 16);
  (* the truncated log accepts appends again and they survive *)
  let db' = VS.apply_head r.Sg.Store.store (delta_i 3) in
  let vs', v = VS.commit r.Sg.Store.store db' in
  ok "append after truncation"
    (Sg.Store.append_commit st2 ~version:v
       ~at:(Option.get (VS.timestamp vs' v))
       (delta_i 3));
  Sg.Store.close st2;
  let st3, r = ok "final reopen" (Sg.Store.open_ ~digest ~dir ~db ()) in
  let r = Option.get r in
  Alcotest.(check int) "three commits now" 3 r.Sg.Store.replayed;
  Alcotest.(check int) "clean tail" 0 r.Sg.Store.discarded_bytes;
  Alcotest.(check bool) "head matches" true
    (R.Database.equal (VS.head_db vs') (VS.head_db r.Sg.Store.store));
  Sg.Store.close st3

let test_corrupt_latest_snapshot_falls_back () =
  with_dir @@ fun dir ->
  let db = rs_db () in
  let st, _ = ok "open" (Sg.Store.open_ ~digest ~dir ~db ()) in
  let vs = build_store st (VS.create db) 3 in
  ignore (ok "snapshot" (Sg.Store.write_snapshot st ~store:vs ~registrations:[]));
  Sg.Store.close st;
  (* maul snapshot-3: fast recovery must fall back to snapshot-0 and
     replay the whole WAL rather than fail *)
  let snap3 = Sg.Snapshot.path ~dir ~version:3 in
  let bytes = Bytes.of_string (read_file snap3) in
  Bytes.set bytes (Bytes.length bytes / 2) '\xff';
  write_file snap3 (Bytes.to_string bytes);
  let st2, r =
    ok "fast reopen" (Sg.Store.open_ ~digest ~mode:Sg.Store.Fast ~dir ~db ())
  in
  let r = Option.get r in
  Alcotest.(check int) "fell back to the floor snapshot" 0 r.Sg.Store.seeded_from;
  Alcotest.(check int) "replayed past the bad snapshot" 3 r.Sg.Store.replayed;
  Alcotest.(check bool) "head recovered anyway" true
    (R.Database.equal (VS.head_db vs) (VS.head_db r.Sg.Store.store));
  Sg.Store.close st2

let test_data_dir_errors_carry_the_path () =
  with_dir @@ fun dir ->
  (* a regular file where the data dir should be *)
  let path = Filename.concat dir "not-a-dir" in
  write_file path "plain file";
  (match Sg.Store.open_ ~digest ~dir:path ~db:(rs_db ()) () with
  | Ok _ -> Alcotest.fail "regular file must not open as a data dir"
  | Error e ->
      Alcotest.(check bool) "error names the path" true (contains e path));
  (* a foreign file where the WAL should be, and no snapshot floor *)
  let wal_dir = Filename.concat dir "d" in
  Unix.mkdir wal_dir 0o700;
  write_file (Filename.concat wal_dir "wal.log") "this is not a WAL";
  (match Sg.Store.open_ ~digest ~dir:wal_dir ~db:(rs_db ()) () with
  | Ok _ -> Alcotest.fail "foreign wal must not open"
  | Error e ->
      Alcotest.(check bool) "missing-snapshot error names the dir" true
        (contains e wal_dir));
  (* with a valid snapshot floor, recovery reaches the WAL scan and the
     error names the log file itself *)
  ignore
    (ok "seed snapshot"
       (Sg.Snapshot.write ~dir:wal_dir
          {
            Sg.Snapshot.version = 0;
            at = 1;
            digest = "";
            registrations = [];
            db = rs_db ();
          }));
  match Sg.Store.open_ ~digest ~dir:wal_dir ~db:(rs_db ()) () with
  | Ok _ -> Alcotest.fail "foreign wal must not open"
  | Error e ->
      Alcotest.(check bool) "error names the wal path" true
        (contains e (Filename.concat wal_dir "wal.log"))

(* Group commit: concurrent [Always] appends must all be durable (every
   record recovered by a scan) while fsync barriers are shared — never
   more fsyncs than appends, and every append Ok only after a covering
   barrier.  Coalescing {e degree} is timing-dependent, so the test
   asserts the invariants and lets bench E16 report the measured gap. *)
let test_concurrent_group_commit () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal.log" in
  let w = ok "create" (Sg.Wal.create ~path ~fsync:Sg.Wal.Always) in
  (* tally the WAL's counters in a registry scoped to this test; the
     appender threads share this domain, hence its scope *)
  let m = Dc_parallel.Metrics.create () in
  Dc_parallel.Metrics.with_sink m @@ fun () ->
  let threads = 8 and per_thread = 20 in
  let failures = Atomic.make 0 in
  let appenders =
    List.init threads (fun k ->
        Thread.create
          (fun () ->
            for i = 0 to per_thread - 1 do
              match
                Sg.Wal.append w
                  (Sg.Wal.Register (Printf.sprintf "Q%d_%d(X) :- R(X)" k i))
              with
              | Ok () -> ()
              | Error _ -> Atomic.incr failures
            done)
          ())
  in
  List.iter Thread.join appenders;
  Sg.Wal.close w;
  let count = Dc_parallel.Metrics.count m in
  let fsyncs = count "wal_fsyncs" and appends = count "wal_appends" in
  Alcotest.(check int) "every append succeeded" 0 (Atomic.get failures);
  Alcotest.(check int) "appends counted" (threads * per_thread) appends;
  Alcotest.(check bool)
    (Printf.sprintf "no more fsyncs (%d) than appends (%d)" fsyncs appends)
    true (fsyncs <= appends);
  Alcotest.(check bool) "group counter within fsyncs" true
    (count "wal_group_commits" <= fsyncs);
  (* durability: every concurrent append is in the recovered prefix *)
  let scan = ok "scan" (Sg.Wal.scan_file ~schemas:[] path) in
  Alcotest.(check (option string)) "no corruption" None scan.Sg.Wal.corrupt;
  Alcotest.(check int) "every record recovered" (threads * per_thread)
    (List.length scan.Sg.Wal.records)

let suite =
  [
    Alcotest.test_case "garbage between records" `Quick
      test_garbage_between_records;
    Alcotest.test_case "foreign magic is an error" `Quick
      test_foreign_magic_is_an_error;
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot file corruption" `Quick
      test_snapshot_file_corruption;
    Alcotest.test_case "store lifecycle" `Quick test_store_lifecycle;
    Alcotest.test_case "store open once" `Quick test_store_open_once;
    Alcotest.test_case "snapshot + fast recovery" `Quick
      test_snapshot_and_fast_recovery;
    Alcotest.test_case "torn tail truncated on reopen" `Quick
      test_torn_tail_truncated_on_reopen;
    Alcotest.test_case "corrupt latest snapshot falls back" `Quick
      test_corrupt_latest_snapshot_falls_back;
    Alcotest.test_case "data-dir errors carry the path" `Quick
      test_data_dir_errors_carry_the_path;
    Alcotest.test_case "concurrent group commit" `Quick
      test_concurrent_group_commit;
    Alcotest.test_case "WAL logs floats at full precision" `Quick
      (test_wal_value R.Value.[ Float 1.0000001; Str "x" ]);
    Alcotest.test_case "WAL refuses the string NULL" `Quick
      (test_wal_value ~refused:{|"NULL"|} R.Value.[ Float 0.5; Str "NULL" ]);
    Alcotest.test_case "WAL refuses an empty string" `Quick
      (test_wal_value ~refused:{|""|} R.Value.[ Float 0.5; Str "" ]);
    Alcotest.test_case "WAL refuses a string with a comma" `Quick
      (test_wal_value ~refused:{|"a,b"|} R.Value.[ Float 0.5; Str "a,b" ]);
    Alcotest.test_case "snapshot directory fsync failure is an error" `Quick
      test_snapshot_dir_fsync_failure;
    Alcotest.test_case "WAL close fsync failure is counted" `Quick
      test_wal_close_fsync_failure_counted;
    prop_frame_roundtrip;
    prop_frame_detects_flip;
    prop_record_roundtrip;
    prop_truncation_yields_prefix;
    prop_bitflip_yields_prefix;
    prop_snapshot_db_roundtrip;
  ]
