module R = Dc_relational

(* ------------------------------------------------------------------ *)
(* v1 content digests.  Relations iterate in Tuple.compare order and the
   database lists relations in name order, so the rendering below is a
   canonical form: two structurally equal databases digest identically
   regardless of construction order.  Field separators are control
   bytes that Value.to_string never emits for well-behaved data. *)

(* Bytes a value usually renders to, plus its separator: presizing the
   buffer from it spares the doubling copies on large databases. *)
let approx_value_bytes = 8

let digest_db db =
  let rels = R.Database.relations db in
  let size =
    List.fold_left
      (fun n rel ->
        n + String.length (R.Relation.name rel) + 2
        + R.Relation.cardinality rel
          * (1 + (approx_value_bytes * R.Schema.arity (R.Relation.schema rel))))
      64 rels
  in
  let buf = Buffer.create size in
  List.iter
    (fun rel ->
      Buffer.add_string buf (R.Relation.name rel);
      Buffer.add_char buf '\x00';
      R.Relation.iter
        (fun t ->
          Array.iter
            (fun v ->
              Buffer.add_string buf (R.Value.to_string v);
              Buffer.add_char buf '\x01')
            t;
          Buffer.add_char buf '\x02')
        rel;
      Buffer.add_char buf '\x03')
    rels;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* v2: a digest over the relations' memoized multiset hashes.  Each
   relation contributes its length-prefixed name and its 16-byte
   {!R.Multiset_hash}, in name order; one MD5 over those few bytes per
   relation is the version's digest.  A version whose relations carry
   their hashes (every version committed after one was digested) costs
   O(#relations). *)

type scheme = V1 | V2

let v2_suffix = ":v2"

let digest_v2 db =
  let rels = R.Database.relations db in
  let buf = Buffer.create (32 * (List.length rels + 1)) in
  List.iter
    (fun rel ->
      let name = R.Relation.name rel in
      Buffer.add_int64_le buf (Int64.of_int (String.length name));
      Buffer.add_string buf name;
      R.Multiset_hash.add_to_buffer buf (R.Relation.multiset_hash rel))
    rels;
  Digest.to_hex (Digest.string (Buffer.contents buf)) ^ v2_suffix

let scheme_of digest =
  match String.rindex_opt digest ':' with
  | None -> Ok V1
  | Some i -> (
      match String.sub digest i (String.length digest - i) with
      | tag when tag = v2_suffix -> Ok V2
      | tag ->
          Error
            (Printf.sprintf
               "unknown fixity digest scheme %S (known: a 32-hex untagged v1 \
                digest, or 32 hex followed by %S)"
               tag v2_suffix))
