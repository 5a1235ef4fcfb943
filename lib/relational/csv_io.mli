(** Minimal CSV reading and writing for relation extents.

    Supports RFC-4180-style quoting: fields containing commas, quotes or
    newlines are double-quoted, embedded quotes are doubled.  This is
    enough for the example datasets and the CLI; it is not a general CSV
    toolkit. *)

val read_file : string -> (string, string) result
(** Whole-file read with a contextual (path + reason) error instead of
    a raised [Sys_error]. *)

val load_relation : Schema.t -> string -> (Relation.t, string) result
(** Reads one tuple per record of the file at a path; a leading header
    record matching the attribute names is skipped, and a blank line is
    no record.  One pass over the file cuts each field and coerces it
    with {!Value.of_string} against its column's type as it goes,
    except that a quoted field of a [string] or [any] column is always
    that string, never [Null]; the rows then make the relation in one
    {!Relation.of_list}.  Records span lines inside quotes, so multiline
    values survive a save/load roundtrip.  Never raises on I/O or parse
    failure: the read, an unterminated quote, a wrong field count and a
    field its type refuses all come back as [Error] mentioning the
    path.  Timed under the [csv_load] timer of
    {!Dc_parallel.Metrics}. *)

val save_relation : Relation.t -> string -> unit
(** Writes a header record, then one record per tuple in {!Relation.scan}
    order, which {!load_relation} reads back as the same relation.  A
    field holding a comma, a quote or a line break is quoted, as are a
    string that would read as NULL bare and a record's lone empty
    field.  A float is written at the fewest of 15, 16 or 17
    significant digits that reads back as the same bits, so a [float]
    column reloads bit for bit; a NaN reloads as a NaN of the same
    sign. *)
