(* The write-ahead log: an append-only file of framed records.

   Layout: an 8-byte magic, then {!Frame} records.  Each record payload
   is text — the protocol-v2 wire delta format carries the data, so a
   WAL record is readable with [strings wal.log] and the codec is the
   one the server already speaks:

   {v
     C <version> <at> <wire-delta>     a committed delta
     R <query>                         a registered query
   v}

   Scanning recovers the longest valid prefix: the first torn frame,
   CRC mismatch, undecodable payload or version gap ends the scan at
   that byte offset, and reopening for append truncates the tail away.
   Appends never rewrite earlier bytes, so an fsynced prefix stays
   valid whatever happens to the tail. *)

module R = Dc_relational
module Metrics = Dc_parallel.Metrics

let log_src = Logs.Src.create "datacite.storage" ~doc:"Durable version store"

module Log = (val Logs.src_log log_src)

let magic = "DCWAL01\n"

type record =
  | Commit of { version : int; at : int; delta : R.Delta.t }
  | Register of string

let encode_record = function
  | Commit { version; at; delta } ->
      Printf.sprintf "C %d %d %s" version at (R.Delta_wire.render delta)
  | Register q -> "R " ^ q

let split_first s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let decode_record ~schemas payload =
  let tag, rest = split_first payload in
  match tag with
  | "R" -> if rest = "" then Error "register record: empty query" else Ok (Register rest)
  | "C" -> (
      let v, rest = split_first rest in
      let at, body = split_first rest in
      match (int_of_string_opt v, int_of_string_opt at) with
      | Some version, Some at ->
          Result.map
            (fun delta -> Commit { version; at; delta })
            (Result.map_error
               (fun e -> "commit record: " ^ e)
               (R.Delta_wire.parse_typed ~schemas body))
      | _ -> Error (Printf.sprintf "commit record: bad header %S" payload))
  | t -> Error (Printf.sprintf "unknown record tag %S" t)

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

type scan = {
  records : record list;  (** the longest valid prefix, in log order *)
  valid_bytes : int;
      (** offset just past the last valid record (includes the magic);
          reopening truncates the file here *)
  total_bytes : int;
  corrupt : string option;
      (** why the scan stopped before [total_bytes], when it did *)
}

let scan_string ~schemas contents =
  let n = String.length contents in
  let m = String.length magic in
  if n < m || String.sub contents 0 m <> magic then
    (* A missing/wrong magic is not a torn tail — appends cannot damage
       the first 8 bytes — so refuse rather than "recover" to empty. *)
    Error
      (Printf.sprintf "bad WAL magic (got %S, want %S)"
         (String.sub contents 0 (min n m))
         magic)
  else
    let rec go acc pos =
      match Frame.read contents pos with
      | Frame.End ->
          { records = List.rev acc; valid_bytes = pos; total_bytes = n;
            corrupt = None }
      | Frame.Corrupt reason ->
          { records = List.rev acc; valid_bytes = pos; total_bytes = n;
            corrupt = Some reason }
      | Frame.Frame (payload, next) -> (
          match decode_record ~schemas payload with
          | Ok r -> go (r :: acc) next
          | Error reason ->
              { records = List.rev acc; valid_bytes = pos; total_bytes = n;
                corrupt = Some reason })
    in
    Ok (go [] m)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error e -> Error e
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

let scan_file ~schemas path =
  match read_file path with
  | Error e -> Error e (* Sys_error / Unix errors already carry the path *)
  | Ok contents ->
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (scan_string ~schemas contents)

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)

type fsync = Always | Interval of float | Never

(* Group commit ([Always] policy): every append gets a generation
   number; one appender at a time becomes the {e leader} and fsyncs
   with the writer lock {e released}, so concurrent committers keep
   appending frames meanwhile.  When the leader returns, everything
   written before its fsync started ([synced_gen]) is durable in one
   barrier; followers parked on [cond] wake, see their generation
   covered, and return without ever touching the disk.  Under serial
   load the leader is alone and the behaviour (and fsync count) is
   exactly the old one-fsync-per-append. *)
type writer = {
  fd : Unix.file_descr;
  path : string;
  fsync : fsync;
  mu : Mutex.t;
  cond : Condition.t;  (* group-commit handoff: synced_gen advanced *)
  mutable write_gen : int;  (* appends written (frame on the fd) *)
  mutable synced_gen : int;  (* appends covered by some fsync *)
  mutable sync_inflight : bool;  (* a leader is fsyncing, lock released *)
  mutable last_sync : float;  (* monotonic; Interval bookkeeping *)
  mutable dirty : bool;
  mutable closed : bool;
}

let wrap_unix path what f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s: %s" path what (Unix.error_message e))

let writer_of_fd ~path ~fsync fd =
  {
    fd;
    path;
    fsync;
    mu = Mutex.create ();
    cond = Condition.create ();
    write_gen = 0;
    synced_gen = 0;
    sync_inflight = false;
    last_sync = Dc_clock.Monotonic.now_s ();
    dirty = false;
    closed = false;
  }

let create ~path ~fsync =
  wrap_unix path "create" (fun () ->
      let fd =
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
      in
      (try
         let n = Unix.write_substring fd magic 0 (String.length magic) in
         assert (n = String.length magic);
         Unix.fsync fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      writer_of_fd ~path ~fsync fd)

(* Reopen after a scan: the file is truncated to the scanned valid
   prefix — the one write that ever shortens a WAL — so the next append
   lands where the last valid record ended. *)
let open_existing ~path ~fsync ~valid_bytes =
  wrap_unix path "open" (fun () ->
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      (try
         (if (Unix.fstat fd).Unix.st_size <> valid_bytes then begin
            Unix.ftruncate fd valid_bytes;
            Unix.fsync fd
          end);
         ignore (Unix.lseek fd 0 Unix.SEEK_END)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      writer_of_fd ~path ~fsync fd)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* Direct fsync with the lock held throughout (Interval policy, explicit
   [sync], [close]): no appender can interleave, so the barrier covers
   everything written so far. *)
let sync_locked w =
  if w.dirty then begin
    Metrics.record_time "wal_fsync" (fun () -> Unix.fsync w.fd);
    Metrics.(record Key.wal_fsyncs);
    w.dirty <- false;
    if w.write_gen > w.synced_gen then w.synced_gen <- w.write_gen
  end;
  w.last_sync <- Dc_clock.Monotonic.now_s ()

(* Called with [w.mu] held; returns (still holding it) once generation
   [my_gen] is covered by a completed fsync.  A failed leader fsync
   wakes the followers to retry as leaders themselves — each append
   either ends durable or returns its own error, never a false Ok. *)
let group_sync_locked w my_gen =
  let rec wait () =
    if w.synced_gen >= my_gen then ()
    else if w.closed then
      (* closed under a waiting follower: durability unknowable *)
      raise (Unix.Unix_error (Unix.EBADF, "fsync", w.path))
    else if w.sync_inflight then begin
      Condition.wait w.cond w.mu;
      wait ()
    end
    else begin
      w.sync_inflight <- true;
      let target = w.write_gen in
      Mutex.unlock w.mu;
      let res =
        try
          Metrics.record_time "wal_fsync" (fun () -> Unix.fsync w.fd);
          None
        with Unix.Unix_error (e, fn, arg) -> Some (e, fn, arg)
      in
      Mutex.lock w.mu;
      w.sync_inflight <- false;
      (match res with
      | None ->
          Metrics.(record Key.wal_fsyncs);
          let covered = target - w.synced_gen in
          if covered >= 2 then Metrics.(record Key.wal_group_commits);
          if target > w.synced_gen then w.synced_gen <- target;
          w.dirty <- w.write_gen > w.synced_gen;
          w.last_sync <- Dc_clock.Monotonic.now_s ()
      | Some _ -> ());
      Condition.broadcast w.cond;
      match res with
      | None -> () (* target >= my_gen: we are covered *)
      | Some (e, fn, arg) -> raise (Unix.Unix_error (e, fn, arg))
    end
  in
  wait ()

let append w record =
  Mutex.protect w.mu (fun () ->
      if w.closed then Error (w.path ^ ": WAL is closed")
      else
        wrap_unix w.path "append" (fun () ->
            Metrics.record_time "wal_append" (fun () ->
                write_all w.fd (Frame.to_string (encode_record record)));
            Metrics.(record Key.wal_appends);
            w.write_gen <- w.write_gen + 1;
            w.dirty <- true;
            match w.fsync with
            | Always -> group_sync_locked w w.write_gen
            | Never -> ()
            | Interval s ->
                if Dc_clock.Monotonic.now_s () -. w.last_sync >= s then
                  sync_locked w))

let sync w =
  Mutex.protect w.mu (fun () ->
      if w.closed then Ok ()
      else wrap_unix w.path "fsync" (fun () -> sync_locked w))

let close w =
  Mutex.protect w.mu (fun () ->
      if not w.closed then begin
        w.closed <- true;
        (* [close] has no error to return: a failed final fsync is
           logged and counted, never swallowed. *)
        (try if w.dirty then Unix.fsync w.fd
         with Unix.Unix_error (e, _, _) ->
           Log.err (fun m ->
               m "%s: fsync on close failed: %s; the last appends may not \
                  be durable"
                 w.path (Unix.error_message e));
           Metrics.(record Key.wal_close_fsync_failures));
        (try Unix.close w.fd with Unix.Unix_error _ -> ());
        (* group-commit followers parked on the condition must not hang *)
        Condition.broadcast w.cond
      end)
