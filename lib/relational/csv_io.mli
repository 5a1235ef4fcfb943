(** Minimal CSV reading and writing for relation extents.

    Supports RFC-4180-style quoting: fields containing commas, quotes or
    newlines are double-quoted, embedded quotes are doubled.  This is
    enough for the example datasets and the CLI; it is not a general CSV
    toolkit. *)

val parse_records : string -> string list list
(** Splits a whole document into records, respecting quoted fields that
    span lines (so multiline values survive a save/load roundtrip).
    A blank line is no record; a lone empty field is written [""].
    Raises [Failure] on an unterminated quote. *)

val read_file : string -> (string, string) result
(** Whole-file read with a contextual (path + reason) error instead of
    a raised [Sys_error]. *)

val load_relation : Schema.t -> string -> (Relation.t, string) result
(** Reads one tuple per record of the file at a path, coercing fields
    with {!Value.of_string} against the schema; a leading header record
    matching the attribute names is skipped.  Never raises on I/O
    failure: both the read and any parse error come back as [Error]
    mentioning the path. *)

val save_relation : Relation.t -> string -> unit
(** Writes a header record, then one record per tuple. *)
