module R = Dc_relational
module C = Dc_citation

type request =
  | Cite of string
  | Cite_batch of string list
  | Cite_param of { view : string; bindings : (string * R.Value.t) list }
  | Cite_at of { version : int; query : string }
  | Commit_delta of R.Delta.t
  | Versions
  | Verify of { version : int; digest : string }
  | Register of string
  | Stats
  | Health
  | Health_v2
  | Quit

let protocol_version = 2
let protocol_versions = [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let split_first line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line i (String.length line - i)) )

(* The same scalar coercion the CLI and REPL apply to NAME=VALUE
   parameters: an integer literal is an Int, everything else a Str. *)
let parse_scalar = R.Delta_wire.parse_scalar

let parse_binding s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad binding %S (want NAME=VALUE)" s)
  | Some i ->
      let name = String.sub s 0 i in
      let value = String.sub s (i + 1) (String.length s - i - 1) in
      if name = "" then Error (Printf.sprintf "bad binding %S: empty name" s)
      else Ok (name, parse_scalar value)

let parse_bindings s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match parse_binding p with
        | Ok b -> go (b :: acc) rest
        | Error e -> Error e)
  in
  go [] parts

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Delta payloads use the shared wire codec ({!Dc_relational.Delta_wire})
   — the same encoding the storage WAL persists — with the loose scalar
   coercion, so strings containing [,;()] are outside the wire format
   (deltas carrying them need a richer client). *)
let parse_delta s =
  Result.map_error (fun e -> "COMMIT_DELTA: " ^ e) (R.Delta_wire.parse s)

(* The command table is shared by both protocol versions: the [V2]
   prefix is what a self-describing v2 client sends, but the commands
   it introduced are also accepted bare, and every v1 command is valid
   under the prefix ([v2] only selects the richer HEALTH report).
   [parse_request] stays total either way. *)
let parse_command ~v2 line =
  let cmd, rest = split_first line in
  match String.uppercase_ascii cmd with
  | "CITE" -> if rest = "" then Error "CITE: missing query" else Ok (Cite rest)
  | "CITE_BATCH" ->
      (* The batch wire form is multi-line ([CITE_BATCH n] then [n] query
         lines); a lone header reaching the single-line parser means the
         caller is not running the incremental {!Decoder}. *)
      Error
        "CITE_BATCH: multi-line request (header then n query lines) — only \
         framed connections accept it"
  | "CITE_PARAM" ->
      let view, kvs = split_first rest in
      if view = "" then Error "CITE_PARAM: missing view name"
      else
        Result.map
          (fun bindings -> Cite_param { view; bindings })
          (parse_bindings kvs)
  | "CITE_AT" -> (
      let v, query = split_first rest in
      if v = "" then Error "CITE_AT: missing version"
      else
        match int_of_string_opt v with
        | None -> Error (Printf.sprintf "CITE_AT: bad version %S" v)
        | Some version ->
            if query = "" then Error "CITE_AT: missing query"
            else Ok (Cite_at { version; query }))
  | "COMMIT_DELTA" ->
      if rest = "" then Error "COMMIT_DELTA: missing delta"
      else Result.map (fun d -> Commit_delta d) (parse_delta rest)
  | "VERSIONS" ->
      if rest = "" then Ok Versions else Error "VERSIONS takes no arguments"
  | "VERIFY" -> (
      let v, digest = split_first rest in
      if v = "" then Error "VERIFY: missing version"
      else
        match int_of_string_opt v with
        | None -> Error (Printf.sprintf "VERIFY: bad version %S" v)
        | Some version ->
            if digest = "" then Error "VERIFY: missing digest"
            else if String.contains digest ' ' then
              Error "VERIFY: digest must be a single token"
            else Ok (Verify { version; digest }))
  | "REGISTER" ->
      if rest = "" then Error "REGISTER: missing query" else Ok (Register rest)
  | "STATS" -> if rest = "" then Ok Stats else Error "STATS takes no arguments"
  | "HEALTH" ->
      if rest = "" then Ok (if v2 then Health_v2 else Health)
      else Error "HEALTH takes no arguments"
  | "QUIT" -> if rest = "" then Ok Quit else Error "QUIT takes no arguments"
  | other ->
      Error
        (Printf.sprintf
           "unknown command %S (want CITE, CITE_BATCH, CITE_PARAM, CITE_AT, \
            COMMIT_DELTA, VERSIONS, VERIFY, REGISTER, STATS, HEALTH or QUIT)"
           other)

let parse_request line =
  let line = String.trim (strip_cr line) in
  if line = "" then Error "empty request"
  else
    let cmd, rest = split_first line in
    if String.uppercase_ascii cmd = "V2" then
      if rest = "" then Error "V2: missing command"
      else parse_command ~v2:true rest
    else parse_command ~v2:false line

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let jstr s = Printf.sprintf "\"%s\"" (C.Fmt_citation.json_escape s)

(* Wire invariant: exactly one line per response.  [\n]s introduced by
   embedded renderers would break framing, so squash defensively. *)
let one_line s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let err_prefix = "ERR "

let error_line msg = err_prefix ^ obj [ ("error", jstr (one_line msg)) ]

(* Load shedding: the one ERR payload clients are expected to branch on
   (retry later), so it is a fixed token rather than prose. *)
let busy_line = error_line "BUSY"

let ok_cite ?version ?timestamp ?digest ?from_registration ~query ~expr
    ~citations ~complete ~tuples ~rewritings ~ms () =
  let stamp =
    (match version with
    | None -> []
    | Some v -> [ ("version", string_of_int v) ])
    @ (match timestamp with
      | None -> []
      | Some at -> [ ("timestamp", string_of_int at) ])
    @ (match digest with None -> [] | Some d -> [ ("digest", jstr d) ])
    @
    match from_registration with
    | None -> []
    | Some b -> [ ("from_registration", string_of_bool b) ]
  in
  one_line
    (obj
       ([
          ("ok", "true");
          ("query", jstr query);
          ("expr", jstr expr);
          ("citations", C.Fmt_citation.render C.Fmt_citation.Json citations);
          ("complete", string_of_bool complete);
          ("tuples", string_of_int tuples);
          ("rewritings", string_of_int rewritings);
        ]
       @ stamp
       @ [ ("ms", Printf.sprintf "%.3f" ms) ]))

let ok_commit ~version ~size ~registrations ~ms =
  obj
    [
      ("ok", "true");
      ("version", string_of_int version);
      ("size", string_of_int size);
      ("registrations", string_of_int registrations);
      ("ms", Printf.sprintf "%.3f" ms);
    ]

let ok_versions ~head ~versions =
  let entry (v, at) =
    obj
      ([ ("version", string_of_int v) ]
      @ match at with None -> [] | Some t -> [ ("timestamp", string_of_int t) ])
  in
  obj
    [
      ("ok", "true");
      ("head", string_of_int head);
      ("versions", "[" ^ String.concat "," (List.map entry versions) ^ "]");
    ]

let ok_verify ~version ~valid ~digest ~ms =
  obj
    [
      ("ok", "true");
      ("version", string_of_int version);
      ("valid", string_of_bool valid);
      ("digest", jstr digest);
      ("ms", Printf.sprintf "%.3f" ms);
    ]

let ok_register ~query ~ms =
  one_line
    (obj
       [
         ("ok", "true");
         ("registered", jstr query);
         ("ms", Printf.sprintf "%.3f" ms);
       ])

let ok_citation ~view ~citation ~ms =
  one_line
    (obj
       [
         ("ok", "true");
         ("view", jstr view);
         ( "citation",
           C.Fmt_citation.render_citation C.Fmt_citation.Json citation );
         ("ms", Printf.sprintf "%.3f" ms);
       ])

let ok_stats ~stats_json = obj [ ("ok", "true"); ("stats", stats_json) ]

let ok_health ?version ?data_dir ?wal_enabled ?last_snapshot_version
    ?recursion ?gc ~uptime_s ~views ~relations ~tuples () =
  (* an optional field: present only when given *)
  let field k render = function None -> [] | Some v -> [ (k, render v) ] in
  obj
    ([
       ("ok", "true");
       ("status", jstr "serving");
       (* Protocol handshake: what the server speaks, and every version
          it still accepts. *)
       ("protocol", string_of_int protocol_version);
       ( "protocols",
         "["
         ^ String.concat "," (List.map string_of_int protocol_versions)
         ^ "]" );
       ("uptime_s", Printf.sprintf "%.1f" uptime_s);
       ("views", string_of_int views);
       ("relations", string_of_int relations);
       ("tuples", string_of_int tuples);
     ]
    @ field "head_version" string_of_int version
    (* Durability report (v2 HEALTH only — v1 output must stay
       byte-identical, so every field below is opt-in). *)
    @ field "data_dir" jstr data_dir
    @ field "wal_enabled" string_of_bool wal_enabled
    @ field "last_snapshot_version" string_of_int last_snapshot_version
    (* Heap report (v2 HEALTH only, like the durability fields). *)
    @ field "gc"
        (fun (g : Gc.stat) ->
          obj
            [
              ("heap_words", string_of_int g.heap_words);
              ("top_heap_words", string_of_int g.top_heap_words);
              ("minor_collections", string_of_int g.minor_collections);
              ("major_collections", string_of_int g.major_collections);
              ("promoted_words", Printf.sprintf "%.0f" g.promoted_words);
            ])
        gc
    (* Capability report (v2 HEALTH only, like the durability fields):
       every citation is served by the versioned engine, on the one
       domain the worker threads share. *)
    @
    match recursion with
    | None -> []
    | Some r ->
        [
          ("backend", jstr "versioned");
          ("shards", "1");
          ("supports_versions", "true");
          ("supports_recursion", string_of_bool r);
        ])

let ok_bye = obj [ ("ok", "true"); ("bye", "true") ]

(* ------------------------------------------------------------------ *)
(* Incremental decoder                                                 *)

module Decoder = struct
  type item = (request, string) result

  type t = {
    buf : Buffer.t;  (** the partial line not yet terminated by [\n] *)
    max_line_bytes : int;
    max_batch : int;
    mutable skipping : bool;
        (** an oversized line was rejected; discard bytes up to the next
            [\n] so framing resynchronizes on the line after it *)
    mutable batch : (int * string list) option;
        (** a [CITE_BATCH n] header was consumed: queries still missing,
            queries collected so far (reversed) *)
  }

  let create ?(max_line_bytes = 1 lsl 16) ?(max_batch = 1024) () =
    if max_line_bytes < 1 then invalid_arg "Decoder.create: max_line_bytes < 1";
    if max_batch < 1 then invalid_arg "Decoder.create: max_batch < 1";
    {
      buf = Buffer.create 256;
      max_line_bytes;
      max_batch;
      skipping = false;
      batch = None;
    }

  let pending_bytes t = Buffer.length t.buf
  let in_batch t = t.batch <> None

  (* Like {!parse_request}, the header is recognized through an optional
     [V2] prefix. *)
  let batch_header line =
    let line = String.trim (strip_cr line) in
    let cmd, rest = split_first line in
    let cmd, rest =
      if String.uppercase_ascii cmd = "V2" then split_first rest
      else (cmd, rest)
    in
    if String.uppercase_ascii cmd = "CITE_BATCH" then Some (String.trim rest)
    else None

  (* One complete line (no [\n]).  [None] = the line was consumed into
     batch state and produced no item yet. *)
  let on_line t line =
    match t.batch with
    | Some (missing, qs) ->
        let q = String.trim (strip_cr line) in
        if q = "" then begin
          (* An empty query line can only be a client bug; abandoning the
             batch here keeps the next line a fresh command instead of
             silently mis-counting. *)
          t.batch <- None;
          Some (Error "CITE_BATCH: empty query line")
        end
        else if missing = 1 then begin
          t.batch <- None;
          Some (Ok (Cite_batch (List.rev (q :: qs))))
        end
        else begin
          t.batch <- Some (missing - 1, q :: qs);
          None
        end
    | None -> (
        match batch_header line with
        | None -> Some (parse_request line)
        | Some count -> (
            match int_of_string_opt count with
            | None ->
                Some (Error (Printf.sprintf "CITE_BATCH: bad count %S" count))
            | Some n when n < 1 ->
                Some (Error "CITE_BATCH: count must be >= 1")
            | Some n when n > t.max_batch ->
                Some
                  (Error
                     (Printf.sprintf
                        "CITE_BATCH: count %d exceeds the batch limit %d" n
                        t.max_batch))
            | Some n ->
                t.batch <- Some (n, []);
                None))

  let feed_sub t data ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length data then
      invalid_arg "Decoder.feed_sub";
    let acc = ref [] in
    for i = pos to pos + len - 1 do
      match Bytes.get data i with
      | '\n' ->
          if t.skipping then begin
            t.skipping <- false;
            Buffer.clear t.buf
          end
          else begin
            let line = Buffer.contents t.buf in
            Buffer.clear t.buf;
            match on_line t line with
            | Some item -> acc := item :: !acc
            | None -> ()
          end
      | c ->
          if not t.skipping then begin
            Buffer.add_char t.buf c;
            if Buffer.length t.buf > t.max_line_bytes then begin
              (* Reject now rather than buffering an unbounded line; the
                 rest of the line is discarded up to its [\n].  A batch
                 being collected cannot survive losing a line. *)
              t.skipping <- true;
              Buffer.clear t.buf;
              t.batch <- None;
              acc := Error "request line too long" :: !acc
            end
          end
    done;
    List.rev !acc

  let feed t s =
    feed_sub t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
end
