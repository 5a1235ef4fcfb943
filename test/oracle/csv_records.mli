(** The CSV record scanner {!Dc_relational.Csv_io} used before its
    single-pass loader: it splits a whole document into records of
    field strings, and each field is then coerced with
    {!Dc_relational.Value.of_string} and inserted one row at a time.
    The loader is tested against it. *)

val parse : string -> string list list
(** Splits a whole document into records, respecting quoted fields that
    span lines.  A blank line is no record; a lone empty field is
    written [""].  Raises [Failure] on an unterminated quote. *)

val load :
  Dc_relational.Schema.t -> string -> (Dc_relational.Relation.t, string) result
(** The relation a document's records make: a leading header record
    matching the attribute names is skipped, each field is coerced with
    {!Dc_relational.Value.of_string} (so a field reading as NULL is
    [Null], quoted or not), and the rows are inserted one at a time.
    [Error] on a parse failure, a wrong field count or a refused
    field. *)
