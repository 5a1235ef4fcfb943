(** The protocol-v2 wire form of a {!Delta.t} — the COMMIT_DELTA
    payload, also the storage WAL's record encoding and the syntax of
    a [datacite store commit] delta file.

    {v change ::= ("+" | "-") relation "(" scalar { "," scalar } ")" v}

    Changes join with [;]; blanks and newlines around a change are
    ignored.  Values render through {!Value.to_string},
    except floats, which get round-trip precision.  Strings that are
    empty, carry [,] or [;] or surrounding blanks, or read as ["NULL"]
    are outside the format (the server protocol documents the same
    restriction); {!replay_error} detects them. *)

val render : Delta.t -> string

val replay_error : schemas:Schema.t list -> Delta.t -> string option
(** [None] when [parse_typed ~schemas (render d)] gives back [d] change
    for change.  Otherwise the reason, naming the first value whose
    field does not read back as itself.  The WAL refuses such a delta
    before logging it. *)

val parse : string -> (Delta.t, string) result
(** Schemaless parse with the loose scalar coercion the server and CLI
    use: integer literals become [Int], everything else [Str].  Total —
    never raises. *)

val parse_typed : schemas:Schema.t list -> string -> (Delta.t, string) result
(** Schema-typed parse: each field is coerced by its column type via
    {!Value.of_string}, so float / bool / timestamp columns round-trip
    as themselves.  [Error] on an unknown relation, arity mismatch or
    uncoercible field.  WAL replay uses this to reproduce committed
    databases exactly. *)

val parse_scalar : string -> Value.t
(** The loose scalar coercion by itself (shared with the server's
    CITE_PARAM bindings). *)
