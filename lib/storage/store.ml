(* The durable version store: one directory holding a WAL plus
   snapshots, and the recovery path that turns them back into a
   [Version_store.t].

   Directory layout:
   {v
     <dir>/wal.log                  append-only framed records
     <dir>/snapshot-%09d.snap       binary snapshot of that version
     <dir>/LOCK                     held (lockf) by the one process
                                    that has the store open
   v}

   Invariants:
   - [snapshot-000000000.snap] always exists (written at init), so Full
     recovery always has a version-0 floor to replay onto.
   - the WAL is synced before a snapshot is written, so a snapshot
     never describes state the log does not (durably) contain.
   - the only destructive write is the reopen-truncate that discards a
     scanned-invalid WAL tail, and it happens under the directory lock,
     so it can never cut off a record another process is appending. *)

module R = Dc_relational
module Metrics = Dc_parallel.Metrics
module VS = R.Version_store

let log_src =
  Logs.Src.create "datacite.storage.store" ~doc:"Durable store recovery"

module Log = (val Logs.src_log log_src)

type fsync = Wal.fsync = Always | Interval of float | Never

type mode =
  | Full  (** seed from snapshot 0, replay the whole WAL: every version
              ever committed is citable again *)
  | Fast
      (** seed from the latest valid snapshot, replay only the suffix:
          fastest restart; versions older than that snapshot are not
          re-materialized *)

(* ------------------------------------------------------------------ *)
(* The directory lock                                                  *)

(* Two openers of one directory would each append at their own offset
   with their own version counter, and recovery in one could truncate a
   record the other just appended.  [lockf] keeps out other processes;
   it does not see a second open in the same process (POSIX record
   locks belong to the process, and closing either descriptor would
   drop both), so [held] keeps out those by the lock file's identity. *)
type lock = { fd : Unix.file_descr; key : int * int }

let held : (int * int, unit) Hashtbl.t = Hashtbl.create 4
let held_mu = Mutex.create ()
let lock_path dir = Filename.concat dir "LOCK"

let acquire_lock dir =
  let path = lock_path dir in
  match Unix.openfile path [ O_RDWR; O_CREAT; O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "%s: cannot open lock file: %s" path
           (Unix.error_message e))
  | fd -> (
      let in_use () =
        Unix.close fd;
        Error (Printf.sprintf "%s: in use by another process" dir)
      in
      let st = Unix.fstat fd in
      let key = (st.Unix.st_dev, st.Unix.st_ino) in
      Mutex.protect held_mu @@ fun () ->
      if Hashtbl.mem held key then (
        Unix.close fd;
        Error (Printf.sprintf "%s: already open in this process" dir))
      else
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | () ->
            Hashtbl.replace held key ();
            Ok { fd; key }
        | exception Unix.Unix_error ((EAGAIN | EACCES), _, _) -> in_use ()
        | exception Unix.Unix_error (e, _, _) ->
            Unix.close fd;
            Error
              (Printf.sprintf "%s: cannot lock: %s" path (Unix.error_message e)))

let release_lock l =
  Mutex.protect held_mu (fun () -> Hashtbl.remove held l.key);
  Unix.close l.fd

type t = {
  dir : string;
  schemas : R.Schema.t list;  (** the base relations commits may touch *)
  digest : (R.Database.t -> string) option;
  writer : Wal.writer;
  lock : lock;
  mu : Mutex.t;  (** serializes snapshot writes *)
  last_snapshot : int Atomic.t;
      (** read without [mu], so a reader never waits on a write *)
}

type recovery = {
  store : VS.t;
  registrations : string list;
  replayed : int;
  seeded_from : int;
  discarded_bytes : int;
  digest_verified : bool option;
}

let wal_path dir = Filename.concat dir "wal.log"
let dir t = t.dir
let last_snapshot_version t = Atomic.get t.last_snapshot

let digest_of t db = match t.digest with None -> "" | Some f -> f db

let schemas_of db =
  List.filter_map (R.Database.schema db) (R.Database.relation_names db)

(* ------------------------------------------------------------------ *)
(* Initialization (empty data dir)                                     *)

let ensure_dir dir =
  match Sys.is_directory dir with
  | true -> Ok ()
  | false ->
      Error (Printf.sprintf "%s: not a directory" dir)
  | exception Sys_error _ -> (
      match Unix.mkdir dir 0o755 with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "%s: cannot create data dir: %s" dir
               (Unix.error_message e)))

let init_fresh ~fsync ~dir ~lock t_digest db =
  let at = 1 in
  (* Match [Version_store.create]'s stamp for version 0. *)
  let snap =
    {
      Snapshot.version = 0;
      at;
      digest = (match t_digest with None -> "" | Some f -> f db);
      registrations = [];
      db;
    }
  in
  Result.bind (Snapshot.write ~dir snap) @@ fun _path ->
  Result.bind (Wal.create ~path:(wal_path dir) ~fsync) @@ fun writer ->
  Ok
    {
      dir;
      schemas = schemas_of db;
      digest = t_digest;
      writer;
      lock;
      mu = Mutex.create ();
      last_snapshot = Atomic.make 0;
    }

(* ------------------------------------------------------------------ *)
(* Recovery (existing data dir)                                        *)

(* Valid snapshots, newest first, skipping (with a warning) any that
   fail CRC or decode — "load the latest {e valid} snapshot". *)
let load_snapshots ~dir =
  Result.bind
    (Result.map_error
       (fun e -> Printf.sprintf "%s: cannot list snapshots: %s" dir e)
       (Snapshot.list ~dir))
  @@ fun entries ->
  let valid =
    List.filter_map
      (fun (_v, path) ->
        match Snapshot.read path with
        | Ok s -> Some s
        | Error e ->
            Log.warn (fun m -> m "skipping corrupt snapshot: %s" e);
            None)
      entries
  in
  match valid with
  | [] -> Error (Printf.sprintf "%s: no valid snapshot found" dir)
  | _ -> Ok valid

let replay ~seed records =
  let store = ref (VS.restore ~version:seed.Snapshot.version ~at:seed.Snapshot.at seed.Snapshot.db) in
  let regs = ref seed.Snapshot.registrations in
  let replayed = ref 0 in
  let stop = ref None in
  List.iter
    (fun record ->
      if !stop = None then
        match record with
        | Wal.Register q ->
            if not (List.mem q !regs) then regs := !regs @ [ q ]
        | Wal.Commit { version; at; delta } ->
            let head = VS.head !store in
            if version <= head then () (* predates the seed snapshot *)
            else if version <> head + 1 then
              stop :=
                Some
                  (Printf.sprintf
                     "WAL version gap: have head %d, next record is %d" head
                     version)
            else (
              match VS.apply_head !store delta with
              | exception Not_found ->
                  stop :=
                    Some
                      (Printf.sprintf
                         "WAL replay: version %d touches an unknown relation"
                         version)
              | exception Invalid_argument e ->
                  stop :=
                    Some (Printf.sprintf "WAL replay: version %d: %s" version e)
              | db ->
                  let store', v = VS.commit_at ~delta !store ~at db in
                  assert (v = version);
                  store := store';
                  incr replayed))
    records;
  Option.iter (fun reason -> Log.warn (fun m -> m "%s (stopping replay)" reason)) !stop;
  (!store, !regs, !replayed)

let recover ~fsync ~mode ~dir ~lock t_digest =
  Result.bind (load_snapshots ~dir) @@ fun snaps_desc ->
  let latest = List.hd snaps_desc in
  let seed =
    match mode with
    | Fast -> latest
    | Full -> List.hd (List.rev snaps_desc) (* lowest valid version *)
  in
  let schemas = schemas_of seed.Snapshot.db in
  Result.bind (Wal.scan_file ~schemas (wal_path dir)) @@ fun scan ->
  let discarded = scan.Wal.total_bytes - scan.Wal.valid_bytes in
  if discarded > 0 then
    Log.warn (fun m ->
        m "%s: discarding %d invalid byte(s) at tail%s" (wal_path dir)
          discarded
          (match scan.Wal.corrupt with
          | None -> ""
          | Some r -> " (" ^ r ^ ")"));
  let store, registrations, replayed =
    Metrics.record_time "recovery_replay" (fun () ->
        replay ~seed scan.Wal.records)
  in
  Metrics.(record ~by:replayed Key.recovery_replayed_deltas);
  (* Verify the recovered state against the stored fixity digest: the
     newest snapshot records what its version hashed to when written;
     if the recovered store disagrees, the files diverged (a WAL and a
     snapshot from different histories) and serving them would break
     every VERIFY promise — refuse to start. *)
  let digest_verified =
    match t_digest with
    | None -> None
    | Some f when latest.Snapshot.digest = "" -> ignore f; None
    | Some f -> (
        match VS.checkout store latest.Snapshot.version with
        | None -> None (* WAL lost the tail; nothing to compare *)
        | Some db -> Some (String.equal (f db) latest.Snapshot.digest))
  in
  match digest_verified with
  | Some false ->
      Error
        (Printf.sprintf
           "%s: recovered version %d does not match its stored fixity digest \
            (snapshot and WAL disagree)"
           dir latest.Snapshot.version)
  | _ ->
      Result.bind
        (Wal.open_existing ~path:(wal_path dir) ~fsync
           ~valid_bytes:scan.Wal.valid_bytes)
      @@ fun writer ->
      Log.info (fun m ->
          m "recovered %s: head %d (seed snapshot %d, %d delta(s) replayed, \
             %d registration(s))"
            dir (VS.head store) seed.Snapshot.version replayed
            (List.length registrations));
      Ok
        ( {
            dir;
            schemas;
            digest = t_digest;
            writer;
            lock;
            mu = Mutex.create ();
            last_snapshot = Atomic.make latest.Snapshot.version;
          },
          {
            store;
            registrations;
            replayed;
            seeded_from = seed.Snapshot.version;
            discarded_bytes = discarded;
            digest_verified;
          } )

(* Both refusals come before any write: a directory that already holds
   a store is left as it was, and a missing one is not created.  They
   are decided again under the lock, in case another process
   initialized the directory in between. *)
let open_ ?digest ?(fsync = Always) ?(mode = Full) ?(fresh = false) ?db ~dir
    () =
  let open_locked lock =
    match (Sys.file_exists (wal_path dir), db) with
    | true, _ when fresh ->
        Error (Printf.sprintf "%s: already holds a store" dir)
    | true, _ ->
        Result.map
          (fun (t, r) -> (t, Some r))
          (recover ~fsync ~mode ~dir ~lock digest)
    | false, None -> Error (Printf.sprintf "%s: no store found" dir)
    | false, Some db ->
        Result.map (fun t -> (t, None)) (init_fresh ~fsync ~dir ~lock digest db)
  in
  match (Sys.file_exists (wal_path dir), db) with
  | true, _ when fresh ->
      Error (Printf.sprintf "%s: already holds a store" dir)
  | false, None -> Error (Printf.sprintf "%s: no store found" dir)
  | has_store, _ ->
      Result.bind (if has_store then Ok () else ensure_dir dir) @@ fun () ->
      Result.bind (acquire_lock dir) @@ fun lock ->
      let opened = open_locked lock in
      if Result.is_error opened then release_lock lock;
      opened

(* ------------------------------------------------------------------ *)
(* Logging and snapshotting a live store                               *)

(* A record recovery would misread must never be acknowledged: check
   the round trip before a byte is written. *)
let append_commit t ~version ~at delta =
  match R.Delta_wire.replay_error ~schemas:t.schemas delta with
  | Some e ->
      Error (Printf.sprintf "%s: version %d: %s" (wal_path t.dir) version e)
  | None -> Wal.append t.writer (Wal.Commit { version; at; delta })

let append_register t query = Wal.append t.writer (Wal.Register query)

let write_snapshot t ~store ~registrations =
  Mutex.protect t.mu @@ fun () ->
  let version = VS.head store in
  let last = Atomic.get t.last_snapshot in
  if version <= last then Ok last
  else
    (* WAL first: a snapshot must never describe state the (durable)
       log does not contain, or Full recovery could come up behind the
       latest snapshot. *)
    Result.bind (Wal.sync t.writer) @@ fun () ->
    let db = VS.head_db store in
    let at = Option.value ~default:0 (VS.timestamp store version) in
    Result.bind
      (Snapshot.write ~dir:t.dir
         {
           Snapshot.version;
           at;
           digest = digest_of t db;
           registrations;
           db;
         })
    @@ fun _path ->
    Atomic.set t.last_snapshot version;
    Ok version

let close t =
  (match Wal.sync t.writer with
  | Ok () -> ()
  | Error e -> Log.warn (fun m -> m "close: %s" e));
  Wal.close t.writer;
  release_lock t.lock
