(** The citation server's wire protocol: a pure, I/O-free codec.

    {b Grammar.}  Requests are single lines; the first
    whitespace-delimited word is the command (case-insensitive), an
    optional leading [V2] token selects the self-describing protocol
    version 2 form:

    {v
      request   ::= [ "V2" ] command
                  | batch
      command   ::= "CITE" query
                  | "CITE_PARAM" view [ binding { "," binding } ]
                  | "CITE_AT" version query          (v2)
                  | "COMMIT_DELTA" change { ";" change }   (v2)
                  | "VERSIONS"                       (v2)
                  | "VERIFY" version digest          (v2)
                  | "REGISTER" query                 (v2)
                  | "STATS" | "HEALTH" | "QUIT"
      batch     ::= [ "V2" ] "CITE_BATCH" count NL query { NL query }
                    (exactly count query lines follow the header;
                     the server answers with count response lines,
                     one per query, in order)
      binding   ::= name "=" scalar
      change    ::= ("+" | "-") relation "(" scalar { "," scalar } ")"
      version   ::= integer
      count     ::= integer >= 1 (bounded by the decoder's max_batch)
      digest    ::= hex32                  (v1: untagged)
                  | hex32 ":v2"            (v2: what CITE_AT stamps)
                  | token ":" tag          (any other tag: ERR)
      hex32     ::= 32 lowercase hex digits
      query     ::= conjunctive query text, e.g. Q(X) :- R(X,Y)
    v}

    [VERIFY] dispatches on the digest's tag ({!Dc_citation.Fixity}): an
    untagged digest is checked against the version's v1 digest, a
    [":v2"] one against its v2 digest, and an unknown tag is an [ERR]
    naming it.  A malformed untagged digest simply answers
    [valid:false].

    A v1 client (no [V2] prefix, only the original five commands) works
    unchanged against a v2 server.  The v2-introduced commands are also
    accepted {e without} the prefix — the prefix is how a
    self-describing client declares intent, not a gate — and every v1
    command is valid under it.  Scalars go through the same coercion as
    CLI parameters: integer literals become [Int], everything else
    [Str]; consequently delta values containing [,;()] are outside the
    line format.

    [CITE_BATCH] is the one multi-line request: its header announces how
    many query lines follow, and the server resolves its head engine
    once for the whole batch.  Because it spans lines it is parsed only
    by the incremental {!Decoder} (the framing layer connections run);
    {!parse_request}, which sees a single line, rejects a stray header.

    Responses are single lines too: success is a JSON object starting
    with [{], failure is [ERR {"error":"..."}].  An overloaded server
    sheds a request with the fixed line {!busy_line}
    ([ERR {"error":"BUSY"}]) — the one ERR payload worth branching on
    (back off and retry) — instead of queueing unboundedly.  The
    [HEALTH] response carries a [protocol]/[protocols] handshake so
    clients can discover what the server speaks.  A trailing [\r]
    (telnet / [nc -C] clients) is tolerated on requests.

    The protocol is {e pipelined}: clients may write any number of
    requests before reading answers, and the server preserves
    per-connection response order, so the k-th response line always
    answers the k-th request.

    [parse_request] is total — any byte sequence yields [Ok] or [Error],
    never an exception — which keeps the codec fuzz-friendly and means a
    malformed request can only ever cost its own [ERR] line. *)

type request =
  | Cite of string  (** cite a Datalog query, e.g. [Q(X) :- R(X,Y)] *)
  | Cite_batch of string list
      (** the [CITE_BATCH n] multi-line form: cite every query against
          one head engine, answering [n] response lines in
          order.  Assembled only by the incremental {!Decoder}. *)
  | Cite_param of {
      view : string;
      bindings : (string * Dc_relational.Value.t) list;
    }
      (** resolve one citation view at a parameter valuation (the
          engine's leaf resolver) *)
  | Cite_at of { version : int; query : string }
      (** cite against a specific committed version (v2) *)
  | Commit_delta of Dc_relational.Delta.t
      (** advance the head by a delta; old versions stay citable (v2) *)
  | Versions  (** list committed versions with timestamps (v2) *)
  | Verify of { version : int; digest : string }
      (** check a version's fixity digest (v2) *)
  | Register of string
      (** register a query for incremental maintenance at head (v2) *)
  | Stats  (** engine + server metrics as JSON *)
  | Health  (** liveness probe with coarse engine facts + protocol
                handshake *)
  | Health_v2
      (** [V2 HEALTH]: the v1 report plus the durability fields
          ([data_dir], [wal_enabled], [last_snapshot_version]), the
          heap report ([gc]) and the capability report.  Bare
          [HEALTH] stays byte-identical to v1. *)
  | Quit  (** close this connection *)

val protocol_version : int
(** The protocol version this codec speaks (2). *)

val parse_request : string -> (request, string) result

(** {2 Response builders} *)

val ok_cite :
  ?version:int ->
  ?timestamp:int ->
  ?digest:string ->
  ?from_registration:bool ->
  query:string ->
  expr:string ->
  citations:Dc_citation.Citation.Set.t ->
  complete:bool ->
  tuples:int ->
  rewritings:int ->
  ms:float ->
  unit ->
  string
(** The optional fields are the version stamp a CITE_AT response
    carries; plain CITE responses omit them. *)

val ok_citation :
  view:string -> citation:Dc_citation.Citation.t -> ms:float -> string

val ok_commit : version:int -> size:int -> registrations:int -> ms:float -> string
(** [version] is the new head, [size] the number of changes applied,
    [registrations] how many registered queries were re-maintained. *)

val ok_versions : head:int -> versions:(int * int option) list -> string

val ok_verify : version:int -> valid:bool -> digest:string -> ms:float -> string
(** [digest] echoes the digest the client asked about. *)

val ok_register : query:string -> ms:float -> string

val ok_stats : stats_json:string -> string
(** Wraps an already-rendered {!Dc_citation.Metrics.to_json} object. *)

val ok_health :
  ?version:int ->
  ?data_dir:string ->
  ?wal_enabled:bool ->
  ?last_snapshot_version:int ->
  ?recursion:bool ->
  ?gc:Gc.stat ->
  uptime_s:float ->
  views:int ->
  relations:int ->
  tuples:int ->
  unit ->
  string
(** [version], when given, reports the versioned engine's head as
    [head_version].  The durability fields ([data_dir], [wal_enabled],
    [last_snapshot_version]) are appended in that order, each only when
    given.  [recursion], when given, appends the capability report
    ([backend], [shards], [supports_versions], and [supports_recursion]
    set to [recursion]).  [gc], when given, adds the heap report
    between the two: a [gc] object with [heap_words],
    [top_heap_words], [minor_collections], [major_collections] and
    [promoted_words] from a {!Gc.quick_stat}.  Together they make a v2
    HEALTH report; omitting them keeps the v1 output byte-identical. *)

val ok_bye : string

val error_line : string -> string
(** [ERR {"error":"<msg>"}] with the message JSON-escaped and squashed
    to one line. *)

val busy_line : string
(** The load-shedding response, [ERR {"error":"BUSY"}]: the server's
    pending-request queue (or a connection's pipeline bound) is full,
    the request was {e not} executed, back off and retry. *)

(** {2 Incremental decoder}

    The framing layer connections run: bytes in, framed requests out.
    Feed it whatever a read returned — any split, down to one byte at a
    time — and it yields each request exactly once, in arrival order,
    as soon as its last byte is seen.  Lines end at [\n] ([\r\n]
    tolerated); a line longer than [max_line_bytes] costs one
    [Error "request line too long"] item and is discarded up to its
    terminator, so framing resynchronizes on the next line (a
    [CITE_BATCH] being collected is abandoned with it).  [CITE_BATCH]
    headers switch the decoder into collection: the [n] following lines
    are taken verbatim as queries (not parsed as commands) and emitted
    as one [Cite_batch] item. *)

module Decoder : sig
  type t

  type item = (request, string) result
  (** [Error] items are per-request parse/framing failures — each costs
      exactly one [ERR] line on the wire, like {!parse_request}
      errors. *)

  val create : ?max_line_bytes:int -> ?max_batch:int -> unit -> t
  (** Defaults: 64 KiB lines, batches of at most 1024 queries. *)

  val feed : t -> string -> item list
  (** Consume a chunk of received bytes, returning every request
      completed by it (possibly none, possibly many). *)

  val feed_sub : t -> bytes -> pos:int -> len:int -> item list
  (** {!feed} on a byte-buffer slice (what a [Unix.read] filled). *)

  val pending_bytes : t -> int
  (** Bytes buffered for the current partial line. *)

  val in_batch : t -> bool
  (** Whether a [CITE_BATCH] header was seen and its query lines are
      still being collected. *)
end
