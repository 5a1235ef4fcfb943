(** Compacted binary snapshots of the full relation set at one version.

    A snapshot is the recovery floor: load it, replay the WAL suffix,
    and the store is back.  The payload is self-describing binary
    (schemas + type-tagged values), CRC-framed like a WAL record, and
    written via temp file + rename so a crash mid-write can never
    produce a validly-named half snapshot. *)

type t = {
  version : int;
  at : int;  (** the version's commit timestamp *)
  digest : string;
      (** the fixity digest of [db] as stored at write time; [""] when
          the writer had no digest function *)
  registrations : string list;  (** rendered registered queries *)
  db : Dc_relational.Database.t;
}

val encode : t -> string
(** The unframed binary payload (exposed for the property tests). *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; total — corruption comes back as [Error]. *)

val path : dir:string -> version:int -> string
(** [dir/snapshot-%09d.snap]. *)

val list : dir:string -> ((int * string) list, string) result
(** Snapshot files in [dir], newest version first. *)

val write : dir:string -> t -> (string, string) result
(** Write (temp + fsync + rename + directory fsync), returning the final
    path.  Errors carry the path and reason.  A failed directory fsync
    is an [Error] too: the file is complete, but its name may not
    survive a crash. *)

val read : string -> (t, string) result
(** Read and verify (magic, CRC, decode).  Errors carry the path and
    reason. *)
