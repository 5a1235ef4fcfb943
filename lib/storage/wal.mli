(** The write-ahead log: framed records over the protocol-v2 wire delta
    format.

    A WAL file is the 8-byte {!magic} followed by {!Frame} records whose
    payloads are text: [C <version> <at> <wire-delta>] for a committed
    delta, [R <query>] for a registered query.  Scanning recovers the
    longest valid prefix — a torn tail, CRC mismatch, undecodable
    payload or implausible length ends the scan at that byte offset
    instead of raising. *)

val magic : string

type record =
  | Commit of { version : int; at : int; delta : Dc_relational.Delta.t }
  | Register of string

val encode_record : record -> string
(** The record's payload text (unframed). *)

val decode_record :
  schemas:Dc_relational.Schema.t list -> string -> (record, string) result
(** Inverse of {!encode_record}.  Deltas are parsed schema-typed (see
    {!Dc_relational.Delta_wire.parse_typed}) so committed values replay
    exactly. *)

(** {2 Scanning} *)

type scan = {
  records : record list;  (** the longest valid prefix, in log order *)
  valid_bytes : int;
      (** offset just past the last valid record (includes the magic) *)
  total_bytes : int;
  corrupt : string option;
      (** why the scan stopped before [total_bytes], when it did *)
}

val scan_string :
  schemas:Dc_relational.Schema.t list -> string -> (scan, string) result
(** Scan whole-file contents.  [Error] only for a missing/foreign magic
    (appends cannot damage the first bytes, so that is a foreign file,
    not a torn tail); everything after the magic degrades to a shorter
    valid prefix. *)

val scan_file :
  schemas:Dc_relational.Schema.t list -> string -> (scan, string) result
(** {!scan_string} on a file, with the path prefixed to any error. *)

(** {2 Appending} *)

type fsync =
  | Always
      (** every append is durable before it returns — no committed delta
          is ever lost.  Concurrent appenders {e group commit}: one
          leader fsyncs (lock released, so others keep appending
          meanwhile) and every append its barrier covered returns
          without a disk touch of its own.  Serial load still pays one
          fsync per append; the [wal_group_commits] counter tracks how
          often a barrier covered more than one append. *)
  | Interval of float
      (** fsync when at least this many seconds passed since the last
          one — bounded loss window, near-[Never] throughput *)
  | Never  (** leave flushing to the OS — crash may lose the tail *)

type writer

val create : path:string -> fsync:fsync -> (writer, string) result
(** Create a fresh WAL (magic only).  Fails if the file exists. *)

val open_existing :
  path:string -> fsync:fsync -> valid_bytes:int -> (writer, string) result
(** Reopen a scanned WAL for append, truncating it to [valid_bytes]
    first — the one write that ever shortens a WAL discards exactly the
    corrupt tail the scan rejected. *)

val append : writer -> record -> (unit, string) result
(** Append one framed record and apply the fsync policy (under
    [Always], through the group commit above — [Ok] means the record is
    on disk, however many appends shared the barrier).  Thread-safe.
    [Error] (with path and reason) on any I/O failure — the caller must
    then {e not} consider the record durable. *)

val sync : writer -> (unit, string) result
(** Force an fsync now (snapshot barrier, graceful drain). *)

val close : writer -> unit
(** Flush and close.  Idempotent; later appends return [Error].  A
    failed final fsync cannot be returned: it is logged as an error on
    the [datacite.storage] source and counted under
    [wal_close_fsync_failures]. *)
