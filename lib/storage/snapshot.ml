(* Compacted binary snapshots of the full relation set.

   A snapshot file is the 8-byte magic plus one {!Frame} whose payload
   is a self-describing binary encoding of the store state at one
   version: header (version, timestamp, fixity digest, registered
   queries) then every relation with its schema and tuples.  Values
   carry their own type tags, so decoding needs no external schema and
   float / timestamp columns survive exactly (this is why CSV is off
   this path).  Writes go through a temp file + rename, so a crash
   mid-snapshot leaves either the old file set or the new one — never a
   half-written snapshot with a valid name. *)

module R = Dc_relational
module Metrics = Dc_parallel.Metrics

let magic = "DCSNAP1\n"

type t = {
  version : int;
  at : int;
  digest : string;  (* "" when the writer had no digest function *)
  registrations : string list;
  db : R.Database.t;
}

(* ------------------------------------------------------------------ *)
(* Binary primitives.  Unsigned LEB128 varints; signed ints zigzag. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let add_varint buf n =
  if n < 0 then invalid_arg "add_varint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let add_zigzag buf n = add_varint buf ((n lsl 1) lxor (n asr 62))

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

type reader = { src : string; mutable pos : int }

let read_byte r =
  if r.pos >= String.length r.src then corrupt "unexpected end of snapshot";
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_varint r =
  let rec go shift acc =
    if shift > 62 then corrupt "varint overflow";
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_zigzag r =
  let n = read_varint r in
  (n lsr 1) lxor (-(n land 1))

let read_string r =
  let n = read_varint r in
  if n > String.length r.src - r.pos then corrupt "string overruns snapshot";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Values, schemas, relations                                          *)

let add_value buf (v : R.Value.t) =
  match v with
  | R.Value.Null -> Buffer.add_char buf '\000'
  | R.Value.Bool b ->
      Buffer.add_char buf '\001';
      Buffer.add_char buf (if b then '\001' else '\000')
  | R.Value.Int n ->
      Buffer.add_char buf '\002';
      add_zigzag buf n
  | R.Value.Float f ->
      Buffer.add_char buf '\003';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | R.Value.Timestamp n ->
      Buffer.add_char buf '\004';
      add_zigzag buf n
  | R.Value.Str s ->
      Buffer.add_char buf '\005';
      add_string buf s

let read_value r : R.Value.t =
  match read_byte r with
  | 0 -> R.Value.Null
  | 1 -> R.Value.Bool (read_byte r <> 0)
  | 2 -> R.Value.Int (read_zigzag r)
  | 3 ->
      if String.length r.src - r.pos < 8 then corrupt "float overruns snapshot";
      let bits = String.get_int64_le r.src r.pos in
      r.pos <- r.pos + 8;
      R.Value.Float (Int64.float_of_bits bits)
  | 4 -> R.Value.Timestamp (read_zigzag r)
  | 5 -> R.Value.Str (read_string r)
  | t -> corrupt "unknown value tag %d" t

let ty_tag : R.Value.ty -> int = function
  | R.Value.TInt -> 0
  | R.Value.TFloat -> 1
  | R.Value.TStr -> 2
  | R.Value.TBool -> 3
  | R.Value.TTimestamp -> 4
  | R.Value.TAny -> 5

let ty_of_tag = function
  | 0 -> R.Value.TInt
  | 1 -> R.Value.TFloat
  | 2 -> R.Value.TStr
  | 3 -> R.Value.TBool
  | 4 -> R.Value.TTimestamp
  | 5 -> R.Value.TAny
  | t -> corrupt "unknown type tag %d" t

let add_schema buf schema =
  add_string buf (R.Schema.name schema);
  let attrs = R.Schema.attributes schema in
  add_varint buf (List.length attrs);
  List.iter
    (fun (a : R.Schema.attribute) ->
      add_string buf a.name;
      add_varint buf (ty_tag a.ty))
    attrs;
  let key = R.Schema.key schema in
  add_varint buf (List.length key);
  List.iter (add_string buf) key

let read_schema r =
  let name = read_string r in
  let nattrs = read_varint r in
  let attrs =
    List.init nattrs (fun _ ->
        let aname = read_string r in
        R.Schema.attr ~ty:(ty_of_tag (read_varint r)) aname)
  in
  let nkey = read_varint r in
  let key = List.init nkey (fun _ -> read_string r) in
  match R.Schema.make ~key name attrs with
  | s -> s
  | exception Invalid_argument e -> corrupt "bad schema %s: %s" name e

let add_relation buf rel =
  add_schema buf (R.Relation.schema rel);
  add_varint buf (R.Relation.cardinality rel);
  R.Relation.iter
    (fun tuple -> Array.iter (add_value buf) tuple)
    rel

let read_relation r =
  let schema = read_schema r in
  let n = read_varint r in
  let arity = R.Schema.arity schema in
  let tuples =
    List.init n (fun _ ->
        R.Tuple.of_array (Array.init arity (fun _ -> read_value r)))
  in
  match R.Relation.of_list schema tuples with
  | rel -> rel
  | exception Invalid_argument e ->
      corrupt "bad tuple in %s: %s" (R.Schema.name schema) e

(* ------------------------------------------------------------------ *)
(* Whole snapshots                                                     *)

let encode t =
  let buf = Buffer.create 4096 in
  add_varint buf t.version;
  add_zigzag buf t.at;
  add_string buf t.digest;
  add_varint buf (List.length t.registrations);
  List.iter (add_string buf) t.registrations;
  let rels = R.Database.relations t.db in
  add_varint buf (List.length rels);
  List.iter (add_relation buf) rels;
  Buffer.contents buf

let decode payload =
  try
    let r = { src = payload; pos = 0 } in
    let version = read_varint r in
    let at = read_zigzag r in
    let digest = read_string r in
    let nregs = read_varint r in
    let registrations = List.init nregs (fun _ -> read_string r) in
    let nrels = read_varint r in
    let db =
      List.fold_left
        (fun db rel -> R.Database.add_relation db rel)
        R.Database.empty
        (List.init nrels (fun _ -> read_relation r))
    in
    if r.pos <> String.length payload then corrupt "trailing bytes";
    Ok { version; at; digest; registrations; db }
  with Corrupt e -> Error e

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let file_name version = Printf.sprintf "snapshot-%09d.snap" version
let path ~dir ~version = Filename.concat dir (file_name version)

let version_of_file name =
  match Scanf.sscanf_opt name "snapshot-%9d.snap%!" (fun v -> v) with
  | Some v when file_name v = name -> Some v
  | _ -> None

let list ~dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | names ->
      Ok
        (Array.to_list names
        |> List.filter_map (fun n ->
               Option.map (fun v -> (v, Filename.concat dir n)) (version_of_file n))
        |> List.sort (fun (a, _) (b, _) -> compare b a))

let write ~dir t =
  let final = path ~dir ~version:t.version in
  let tmp = final ^ ".tmp" in
  let res =
    Metrics.record_time "snapshot_write" @@ fun () ->
    match
      let fd =
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let buf = Buffer.create 4096 in
          Buffer.add_string buf magic;
          Frame.write buf (encode t);
          let s = Buffer.contents buf in
          let n = String.length s in
          let rec go off =
            if off < n then go (off + Unix.write_substring fd s off (n - off))
          in
          go 0;
          Unix.fsync fd);
      Unix.rename tmp final;
      (* Make the rename itself durable; until the directory is synced
         the new name may not survive a crash, so a failure is the
         write's failure. *)
      let dfd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
        (fun () -> Unix.fsync dfd)
    with
    | () -> Ok final
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.unlink tmp with Unix.Unix_error _ | Sys_error _ -> ());
        Error
          (Printf.sprintf "%s: write snapshot: %s" final (Unix.error_message e))
  in
  if Result.is_ok res then Metrics.(record Key.snapshots_written);
  res

let read path =
  Metrics.record_time "snapshot_load" @@ fun () ->
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | contents ->
      let m = String.length magic in
      if String.length contents < m || String.sub contents 0 m <> magic then
        Error (Printf.sprintf "%s: bad snapshot magic" path)
      else (
        match Frame.read contents m with
        | Frame.End -> Error (Printf.sprintf "%s: empty snapshot" path)
        | Frame.Corrupt reason -> Error (Printf.sprintf "%s: %s" path reason)
        | Frame.Frame (payload, next) ->
            if next <> String.length contents then
              Error (Printf.sprintf "%s: trailing bytes after snapshot" path)
            else
              Result.map_error
                (fun e -> Printf.sprintf "%s: %s" path e)
                (decode payload))
