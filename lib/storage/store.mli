(** The durable version store: a data directory holding a write-ahead
    log plus binary snapshots, and crash recovery back into a
    {!Dc_relational.Version_store.t}.

    {b Layout.}  [<dir>/wal.log] is an append-only log of framed
    records (see {!Wal}); [<dir>/snapshot-<v>.snap] is a binary
    snapshot of version [v] (see {!Snapshot}).  [snapshot-000000000]
    is written when the directory is initialized, so {!Full} recovery
    always has a floor.  [<dir>/LOCK] is locked by the one handle that
    has the directory open.

    {b Recovery.}  {!open_} on a populated directory loads the seed
    snapshot (per {!mode}), scans the WAL — keeping the longest valid
    prefix and discarding a torn tail by truncation — replays the
    suffix of committed deltas with their original version numbers and
    timestamps, gathers registered queries, and verifies the recovered
    state against the newest snapshot's stored fixity digest (refusing
    to open on a mismatch).

    {b Durability ordering.}  Callers append to the WAL {e before}
    publishing a commit (see {!Dc_citation.Versioned_engine}); the
    store syncs the WAL before writing any snapshot, so a snapshot
    never describes state the log lacks.

    All I/O errors are [Error] values carrying path and reason — never
    exceptions. *)

type fsync = Wal.fsync = Always | Interval of float | Never

type mode =
  | Full
      (** seed from snapshot 0 and replay the whole WAL: every version
          ever committed is citable again (the default) *)
  | Fast
      (** seed from the latest valid snapshot and replay only the
          suffix: fastest restart, but versions older than that
          snapshot are not re-materialized *)

type t

type recovery = {
  store : Dc_relational.Version_store.t;  (** the recovered store *)
  registrations : string list;
      (** rendered queries to re-arm, in registration order *)
  replayed : int;  (** commit records replayed from the WAL *)
  seeded_from : int;  (** snapshot version recovery started from *)
  discarded_bytes : int;  (** invalid WAL tail bytes truncated away *)
  digest_verified : bool option;
      (** [Some true] when the recovered head state matched the newest
          snapshot's stored digest; [None] when there was nothing to
          compare (no digest function, or the WAL lost that version) *)
}

val open_ :
  ?digest:(Dc_relational.Database.t -> string) ->
  ?fsync:fsync ->
  ?mode:mode ->
  ?fresh:bool ->
  ?db:Dc_relational.Database.t ->
  dir:string ->
  unit ->
  (t * recovery option, string) result
(** Open (or initialize) a data directory.  A directory without a WAL
    is initialized fresh when [db] is given: the directory is created
    if missing, [db] becomes version 0, its snapshot is written, and
    the result carries [None]; without [db] it is an [Error] and
    nothing is created.  A populated directory is recovered as
    described above and the result carries [Some]; with [~fresh:true]
    it is an [Error] instead, and nothing in it is touched.
    [digest] (typically {!Dc_citation.Fixity.digest_db}) is stored in
    snapshots and checked on recovery.  [fsync] defaults to [Always],
    [mode] to [Full].

    One handle at a time: before reading or writing the store, [open_]
    takes an exclusive lock on [<dir>/LOCK], held until {!close}.  A
    directory another process (or another handle in this process) has
    open is an [Error] ("in use"), with nothing read or written.
    Every successful open runs recovery, so even a caller that only
    reads may repair the directory by truncating a torn WAL tail. *)

val append_commit :
  t -> version:int -> at:int -> Dc_relational.Delta.t -> (unit, string) result
(** Log one committed delta.  Call {e before} publishing the new head:
    an [Error] here means the commit is not durable and must not be
    exposed.  A delta whose logged form would not replay as itself
    ({!Dc_relational.Delta_wire.replay_error}) is refused with nothing
    written. *)

val append_register : t -> string -> (unit, string) result
(** Log one registered query (its rendered form). *)

val write_snapshot :
  t ->
  store:Dc_relational.Version_store.t ->
  registrations:string list ->
  (int, string) result
(** Snapshot the store's head if it advanced past the last snapshot
    (no-op [Ok last] otherwise).  Syncs the WAL first.  Returns the
    version now covered by the newest snapshot. *)

val last_snapshot_version : t -> int

val dir : t -> string

val close : t -> unit
(** Final WAL sync + close, and release the directory lock.  The
    handle must not be used afterwards. *)
