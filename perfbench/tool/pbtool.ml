(* pbtool: the in-process half of the citation-server benchmark.
   perfbench/run.py drives it; perfbench/README.md explains the whole.

     pbtool gen DIR FAMILIES SEED SUBFAMILIES
       Write a seeded GtoPdb database (Dc_gtopdb.Generator) to DIR, with
       a Subfamily(Parent,Child) forest when SUBFAMILIES is 1, and print
       one "relation<TAB>tuples" line per relation.

     pbtool expect DATA VIEWS PROGRAM COMMITS CHECKS OUT
       The correctness oracle.  Builds the engine the server builds,
       commits the acknowledged deltas (COMMITS: "version<TAB>delta"
       lines in version order), then answers every CHECKS line
       "id<TAB>version<TAB>query" in OUT as
       "id<TAB>tuples<TAB>digest<TAB>citations-json"; an empty query
       asks for the version's digest alone.

     pbtool replay DATA VIEWS PROGRAM REQUESTS MODE SPANS OUT
       Replays a request sequence (run.py's requests.tsv) in process,
       through the server's own decoder, engines and encoders.  MODE
       "traced" keeps a span around every layer call, writes the spans
       to SPANS and the per-layer metrics to OUT; MODE "plain" makes the
       same calls untraced and reports only the wall time.

   PROGRAM, COMMITS and SPANS may be "-" for none. *)

module R = Dc_relational
module C = Dc_citation
module K = Dc_citation.Metrics.Key
module P = Dc_server.Protocol
module Clock = Dc_clock.Monotonic

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("pbtool: " ^ s);
      exit 2)
    fmt

let ok_or what = function Ok x -> x | Error e -> die "%s: %s" what e
let read_file path = ok_or path (R.Csv_io.read_file path)

let lines path =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let tab2 line =
  match String.index_opt line '\t' with
  | Some i ->
      (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  | None -> die "no tab in %S" line

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
  ^ "}"

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)

let subfamily =
  R.Schema.make "Subfamily" ~key:[ "Parent"; "Child" ]
    [
      R.Schema.attr ~ty:R.Value.TInt "Parent";
      R.Schema.attr ~ty:R.Value.TInt "Child";
    ]

(* Trees of about ten families, up to three children a node, so a
   family's subfamily closure is a handful of rows; one edge in ten is
   dropped, cutting its subtree loose as a tree of its own. *)
let subfamily_edges rng families =
  let trees = max 1 (families / 10) in
  List.filter_map
    (fun f ->
      let pos = (f - 1) / trees and tree = (f - 1) mod trees in
      if pos = 0 || Random.State.int rng 10 = 0 then None
      else
        let parent = (((pos - 1) / 3) * trees) + tree + 1 in
        Some (R.Tuple.make [ R.Value.Int parent; R.Value.Int f ]))
    (List.init families (fun i -> i + 1))

let gen dir families seed subfamilies =
  let config = Dc_gtopdb.Generator.(scale default_config ~families) in
  let db = Dc_gtopdb.Generator.generate ~config ~seed () in
  let db =
    if subfamilies then
      R.Database.insert_list
        (R.Database.create_relation db subfamily)
        "Subfamily"
        (subfamily_edges (Random.State.make [| seed; 1 |]) families)
    else db
  in
  C.Spec.save_database db ~dir;
  List.iter
    (fun r ->
      Printf.printf "%s\t%d\n" (R.Relation.name r) (R.Relation.cardinality r))
    (R.Database.relations db)

(* ------------------------------------------------------------------ *)
(* The engine the server builds from --data, --views and --program,
   versioned with the server's default engine cache.                   *)

let load data views program =
  let db = ok_or data (C.Spec.load_database ~dir:data) in
  let cvs = ok_or views (C.Spec.parse_views (read_file views)) in
  let eng =
    if program = "-" then C.Engine.create db cvs
    else
      C.Engine.of_program ~views:cvs db
        (ok_or program (Dc_cq.Program.parse (read_file program)))
  in
  ( eng,
    C.Versioned_engine.of_engine
      ~capacity:Dc_server.Server.(default_config.version_cache)
      eng )

(* ------------------------------------------------------------------ *)
(* expect                                                              *)

let expect data views program commits checks out =
  let _, ve = load data views program in
  if commits <> "-" then
    List.iter
      (fun line ->
        let v, delta = tab2 line in
        match
          C.Versioned_engine.commit_delta ve
            (ok_or "delta" (R.Delta_wire.parse delta))
        with
        | Ok got when string_of_int got = v -> ()
        | Ok got ->
            die "replayed commit became version %d, the server acknowledged %s"
              got v
        | Error e -> die "commit %s: %s" v e)
      (lines commits);
  let buf = Buffer.create 4096 in
  List.iter
    (fun line ->
      let id, rest = tab2 line in
      let v, q = tab2 rest in
      let v = int_of_string v in
      let digest = ok_or "digest" (C.Versioned_engine.digest_at ve v) in
      if q = "" then Printf.bprintf buf "%s\t-1\t%s\tnull\n" id digest
      else
        let query = ok_or q (Dc_cq.Parser.parse_query q) in
        let cited = ok_or q (C.Versioned_engine.cite_at ve v query) in
        let r = cited.C.Versioned_engine.result in
        Printf.bprintf buf "%s\t%d\t%s\t%s\n" id
          (List.length r.C.Engine.tuples)
          digest
          (C.Fmt_citation.render C.Fmt_citation.Json r.C.Engine.result_citations))
    (lines checks);
  write_file out (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)

type record = {
  phase : string;
  kind : string;
  arg : string;
  texts : string list;
}

let record_of_line line =
  match String.split_on_char '\t' line with
  | phase :: _conn :: kind :: arg :: texts -> { phase; kind; arg; texts }
  | _ -> die "bad request line %S" line

(* Mirrors resolve_version in benchlib.py: "rK" is K versions below the
   head, "oU" the fraction U of the way through the versions at least
   eight below it. *)
let resolve_version ~head sel =
  let n = String.sub sel 1 (String.length sel - 1) in
  match sel.[0] with
  | 'r' -> max 0 (head - int_of_string n)
  | 'o' ->
      let top = max 0 (head - 8) in
      min top (int_of_float (float_of_string n *. float_of_int (top + 1)))
  | _ -> die "bad version selector %S" sel

type span = {
  id : int;
  name : string;
  start : int64;
  stop : int64;
  parent : int;  (** -1 for a top-level span *)
  req : int;  (** the request's line number in the sequence *)
}

type tracer = {
  mutable on : bool;
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable req : int;
}

let span tr name f =
  if not tr.on then f ()
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let start = Clock.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let stop = Clock.now_ns () in
        tr.stack <- List.tl tr.stack;
        tr.spans <- { id; name; start; stop; parent; req = tr.req } :: tr.spans)
  end

(* The engine times its own stages under these Metrics timers.  Their
   growth across one cite becomes that cite's child spans, laid end to
   end from its start in the order the stages run: the durations are
   measured, the placement inside the cite is not. *)
let stages =
  [
    ("version_materialize", "citation.materialize");
    ("rewrite", "rewriting.search");
    ("eval", "cq.eval");
    ("fixity_digest", "citation.digest");
  ]

let cite_span tr m name f =
  if not tr.on then f ()
  else
    span tr name (fun () ->
        let read () = List.map (fun (k, _) -> fst (C.Metrics.timer m k)) stages in
        let before = read () in
        let start = Clock.now_ns () in
        let result = f () in
        let parent = List.hd tr.stack in
        let at = ref start in
        List.iter2
          (fun (_, name) d ->
            let stop = Int64.add !at (Int64.of_float (d *. 1e9)) in
            tr.spans <-
              { id = tr.next; name; start = !at; stop; parent; req = tr.req }
              :: tr.spans;
            tr.next <- tr.next + 1;
            at := stop)
          stages
          (List.map2 ( -. ) (read ()) before);
        result)

type state = {
  ve : C.Versioned_engine.t;
  m : C.Metrics.t;
  tr : tracer;
  dec : P.Decoder.t;
  mutable head_eng : C.Engine.t;
      (** what a v1 CITE cites: the server's shard over the head *)
  mutable cited : (int * string) option;
      (** version and digest of the latest CITE_AT answer *)
  mutable cites : int;
  mutable tuples : int;
  mutable encodes : int;
  mutable bytes : int;
  mutable failures : int;
}

(* Mirrors wire in benchlib.py. *)
let wire st r =
  match (r.kind, r.texts) with
  | "cite", [ q ] -> "CITE " ^ q
  | "batch", qs ->
      Printf.sprintf "CITE_BATCH %d\n%s" (List.length qs) (String.concat "\n" qs)
  | "cite_at", [ q ] ->
      Printf.sprintf "V2 CITE_AT %d %s"
        (resolve_version ~head:(C.Versioned_engine.head st.ve) r.arg)
        q
  | "verify", [] -> (
      match st.cited with
      | Some (v, d) -> Printf.sprintf "V2 VERIFY %d %s" v d
      | None -> die "VERIFY before any CITE_AT")
  | "commit", [ d ] -> "V2 COMMIT_DELTA " ^ d
  | kind, _ -> die "bad %s request" kind

let fail st = st.failures <- st.failures + 1

let encode st f =
  let line = span st.tr "server.encode" f in
  st.encodes <- st.encodes + 1;
  st.bytes <- st.bytes + String.length line + 1

let parse st q = span st.tr "cq.parse" (fun () -> Dc_cq.Parser.parse_query q)

let encode_cite st ?version ?timestamp ?digest ?from_registration ~t0 q
    (r : C.Engine.result) =
  let n = List.length r.C.Engine.tuples in
  st.cites <- st.cites + 1;
  st.tuples <- st.tuples + n;
  encode st (fun () ->
      P.ok_cite ?version ?timestamp ?digest ?from_registration ~query:q
        ~expr:(C.Cite_expr.to_string r.C.Engine.result_expr)
        ~citations:r.C.Engine.result_citations ~complete:r.C.Engine.complete
        ~tuples:n
        ~rewritings:(List.length r.C.Engine.rewritings)
        ~ms:(Clock.elapsed_ms t0) ())

let cite st ~t0 q =
  match parse st q with
  | Error _ -> fail st
  | Ok query ->
      encode_cite st ~t0 q
        (cite_span st.tr st.m "citation.cite" (fun () ->
             C.Engine.cite st.head_eng query))

(* The server's request execution, minus sockets and worker threads. *)
let execute st ~t0 (item : P.Decoder.item) =
  match item with
  | Ok (P.Cite q) -> cite st ~t0 q
  | Ok (P.Cite_batch qs) -> List.iter (cite st ~t0) qs
  | Ok (P.Cite_at { version; query = q }) -> (
      match parse st q with
      | Error _ -> fail st
      | Ok query -> (
          match
            cite_span st.tr st.m "citation.cite_at" (fun () ->
                C.Versioned_engine.cite_at st.ve version query)
          with
          | Error _ -> fail st
          | Ok
              {
                C.Versioned_engine.version = v;
                timestamp;
                digest;
                result;
                from_registration;
              } ->
              st.cited <- Some (v, digest);
              encode_cite st ~version:v ?timestamp ~digest ~from_registration
                ~t0 q result))
  | Ok (P.Commit_delta d) -> (
      match
        span st.tr "citation.commit" (fun () ->
            C.Versioned_engine.commit_delta st.ve d)
      with
      | Error _ -> fail st
      | Ok v -> (
          (* what the server's post-commit shard refresh pays *)
          match
            span st.tr "citation.engine_at" (fun () ->
                C.Versioned_engine.engine_at st.ve v)
          with
          | Error _ -> fail st
          | Ok e ->
              st.head_eng <- e;
              encode st (fun () ->
                  P.ok_commit ~version:v ~size:(R.Delta.size d)
                    ~registrations:
                      (List.length (C.Versioned_engine.registrations st.ve))
                    ~ms:(Clock.elapsed_ms t0))))
  | Ok (P.Verify { version; digest }) -> (
      match
        span st.tr "citation.verify" (fun () ->
            C.Versioned_engine.verify st.ve version digest)
      with
      | Ok true ->
          encode st (fun () ->
              P.ok_verify ~version ~valid:true ~digest ~ms:(Clock.elapsed_ms t0))
      | Ok false | Error _ -> fail st)
  | Ok _ | Error _ -> fail st

let dur s = Int64.to_float (Int64.sub s.stop s.start)

(* Per span name: count, total and self nanoseconds, a span's self time
   being its duration minus its children's. *)
let self_times spans =
  let kids = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt kids s.parent)))
    spans;
  let agg = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, total, self =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt agg s.name)
      in
      let d = dur s in
      Hashtbl.replace agg s.name
        ( n + 1,
          total +. d,
          self +. d -. Option.value ~default:0. (Hashtbl.find_opt kids s.id) ))
    spans;
  agg

let counter cs k = Option.value ~default:0 (List.assoc_opt k cs)
let timer ts k = Option.value ~default:(0., 0) (List.assoc_opt k ts)

(* The per-layer metrics of the measured part of a traced replay; the
   metric table in perfbench/README.md defines each. *)
let layer_metrics st ~wall_ns (c0, t0) (c1, t1) agg top_ns =
  let dc k = float_of_int (counter c1 k - counter c0 k) in
  let dt k =
    let s1, n1 = timer t1 k and s0, n0 = timer t0 k in
    (s1 -. s0, float_of_int (n1 - n0))
  in
  let per_call k scale =
    let s, n = dt k in
    ratio (s *. scale) n
  in
  let share hits others = ratio (dc hits) (dc hits +. dc others) in
  let stat name = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt agg name) in
  let mean_us name =
    let n, total, _ = stat name in
    ratio (total /. 1e3) (float_of_int n)
  in
  let self_ns name =
    let _, _, self = stat name in
    self
  in
  let cites = float_of_int st.cites in
  [
    ("server.decode_us", mean_us "server.decode");
    ("server.encode_us", mean_us "server.encode");
    ( "server.response_bytes",
      ratio (float_of_int st.bytes) (float_of_int st.encodes) );
    ("cq.parse_us", mean_us "cq.parse");
    ("cq.eval_us", ratio (fst (dt "eval") *. 1e6) cites);
    ("cq.compiled_plan_hit_ratio", share K.eval_plan_hits K.plan_compiles);
    ("cq.plan_compile_us", per_call "plan_compile" 1e6);
    ("cq.derive_ms", per_call "derive" 1e3);
    ( "cq.fixpoint_iterations",
      ratio (dc K.datalog_iterations) (snd (dt "derive")) );
    ("rewriting.search_us", ratio (fst (dt "rewrite") *. 1e6) cites);
    ("rewriting.plan_hit_ratio", share K.plan_cache_hits K.plan_cache_misses);
    ( "rewriting.containment_checks_per_cite",
      ratio (dc K.containment_checks) cites );
    ( "citation.cite_self_us",
      ratio ((self_ns "citation.cite" +. self_ns "citation.cite_at") /. 1e3) cites
    );
    ("citation.leaf_hit_ratio", share K.leaf_cache_hits K.leaf_cache_misses);
    ("citation.tuples_per_cite", ratio (float_of_int st.tuples) cites);
    ("citation.commit_us", mean_us "citation.commit");
    ("citation.engine_at_ms", mean_us "citation.engine_at" /. 1e3);
    ( "citation.version_cache_hit_ratio",
      share K.version_cache_hits K.version_cache_misses );
    ("citation.digest_ms", per_call "fixity_digest" 1e3);
    ( "citation.registrations_per_commit",
      ratio (dc K.registrations_maintained) (dc K.version_commits) );
    ("trace.coverage_pct", ratio (100. *. top_ns) wall_ns);
  ]

let write_spans path spans =
  let buf = Buffer.create (64 * List.length spans) in
  Buffer.add_string buf "id\tname\tstart_ns\tend_ns\tparent\trequest\n";
  List.iter
    (fun s ->
      Printf.bprintf buf "%d\t%s\t%Ld\t%Ld\t%d\t%d\n" s.id s.name s.start s.stop
        s.parent s.req)
    (List.sort (fun a b -> compare a.id b.id) spans);
  write_file path (Buffer.contents buf)

let replay data views program requests mode spans_out out =
  let traced =
    match mode with
    | "traced" -> true
    | "plain" -> false
    | m -> die "bad mode %S" m
  in
  let records = List.map record_of_line (lines requests) in
  let eng, ve = load data views program in
  let st =
    {
      ve;
      m = C.Engine.metrics eng;
      tr = { on = false; spans = []; next = 0; stack = []; req = 0 };
      dec = P.Decoder.create ();
      head_eng = eng;
      cited = None;
      cites = 0;
      tuples = 0;
      encodes = 0;
      bytes = 0;
      failures = 0;
    }
  in
  let run i r =
    let t0 = Clock.now_s () in
    let bytes = wire st r ^ "\n" in
    st.tr.req <- i;
    span st.tr "request" (fun () ->
        List.iter (execute st ~t0)
          (span st.tr "server.decode" (fun () -> P.Decoder.feed st.dec bytes)))
  in
  (* the prologue and warm-up are replayed untimed, like the live run *)
  let untimed r = r.phase = "p" || r.phase = "w" in
  let warm = List.filter untimed records in
  let measured = List.filter (fun r -> not (untimed r)) records in
  List.iteri run warm;
  st.cites <- 0;
  st.tuples <- 0;
  st.encodes <- 0;
  st.bytes <- 0;
  let snapshot () = (C.Metrics.counters st.m, C.Metrics.timers st.m) in
  let before = snapshot () in
  st.tr.on <- traced;
  let start = Clock.now_ns () in
  List.iteri (fun i r -> run (List.length warm + i) r) measured;
  let wall_ns = Int64.to_float (Int64.sub (Clock.now_ns ()) start) in
  st.tr.on <- false;
  let after = snapshot () in
  let summary =
    [
      ("wall_s", json_float (wall_ns /. 1e9));
      ("requests", string_of_int (List.length measured));
      ("failures", string_of_int st.failures);
    ]
  in
  if not traced then write_file out (json_obj summary)
  else begin
    let spans = st.tr.spans in
    if spans_out <> "-" then write_spans spans_out spans;
    let agg = self_times spans in
    let top_ns =
      List.fold_left (fun a s -> if s.parent < 0 then a +. dur s else a) 0. spans
    in
    let metrics = layer_metrics st ~wall_ns before after agg top_ns in
    let self =
      List.sort compare
        (Hashtbl.fold
           (fun name (n, total, self) acc ->
             ( name,
               json_obj
                 [
                   ("count", string_of_int n);
                   ("total_ms", json_float (total /. 1e6));
                   ("self_ms", json_float (self /. 1e6));
                 ] )
             :: acc)
           agg [])
    in
    write_file out
      (json_obj
         (summary
         @ [
             ( "metrics",
               json_obj (List.map (fun (k, v) -> (k, json_float v)) metrics) );
             ("self", json_obj self);
           ]))
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; dir; families; seed; sub ] ->
      gen dir (int_of_string families) (int_of_string seed) (sub = "1")
  | [ "expect"; data; views; program; commits; checks; out ] ->
      expect data views program commits checks out
  | [ "replay"; data; views; program; requests; mode; spans; out ] ->
      replay data views program requests mode spans out
  | _ -> die "usage: pbtool gen|expect|replay ARGS (see pbtool.ml)"
