module R = Dc_relational
module Cq = Dc_cq

type t = {
  version : R.Version_store.version;
  timestamp : int option;
  query_text : string;
  expr : Cite_expr.t;
  citations : Citation.Set.t;
  tuples : R.Tuple.t list;
}

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

let cite ?policy ?selection ~store ~views query =
  let db = R.Version_store.head_db store in
  let engine = Engine.create ?policy ?selection db views in
  let result = Engine.cite engine query in
  {
    version = R.Version_store.head store;
    timestamp = R.Version_store.timestamp store (R.Version_store.head store);
    query_text = Cq.Query.to_string query;
    expr = result.result_expr;
    citations = result.result_citations;
    tuples = List.map (fun (tc : Engine.tuple_citation) -> tc.tuple) result.tuples;
  }

let cite_at ?policy ?selection ~store ~views ~version query =
  match R.Version_store.checkout store version with
  | None -> Error (Printf.sprintf "version %d not in store" version)
  | Some db ->
      let engine = Engine.create ?policy ?selection db views in
      let result = Engine.cite engine query in
      Ok
        {
          version;
          timestamp = R.Version_store.timestamp store version;
          query_text = Cq.Query.to_string query;
          expr = result.result_expr;
          citations = result.result_citations;
          tuples =
            List.map (fun (tc : Engine.tuple_citation) -> tc.tuple) result.tuples;
        }

let cite_at_time ?policy ?selection ~store ~views ~time query =
  match R.Version_store.version_at store time with
  | None -> Error (Printf.sprintf "no version at or before time %d" time)
  | Some version -> cite_at ?policy ?selection ~store ~views ~version query

let resolve ~store ~views vc =
  match R.Version_store.checkout store vc.version with
  | None -> Error (Printf.sprintf "version %d not in store" vc.version)
  | Some db -> (
      match Cq.Parser.parse_query vc.query_text with
      | Error e -> Error e
      | Ok query ->
          let engine = Engine.create db views in
          let result = Engine.cite engine query in
          Ok
            (List.map
               (fun (tc : Engine.tuple_citation) -> tc.tuple)
               result.tuples))

let verify ~store ~views vc =
  match resolve ~store ~views vc with
  | Error _ -> false
  | Ok tuples ->
      List.length tuples = List.length vc.tuples
      && List.for_all2 R.Tuple.equal tuples vc.tuples

let pp ppf vc =
  Format.fprintf ppf
    "@[<v>cited at version %d%a@ query: %s@ formal: %a@ %a@]" vc.version
    (fun ppf -> function
      | None -> ()
      | Some ts -> Format.fprintf ppf " (time %d)" ts)
    vc.timestamp vc.query_text Cite_expr.pp vc.expr Citation.Set.pp
    vc.citations
