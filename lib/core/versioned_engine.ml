module Cq = Dc_cq
module R = Dc_relational
module VS = R.Version_store

let log_src =
  Logs.Src.create "datacite.versioned" ~doc:"Versioned citation engine"

module Log = (val Logs.src_log log_src)

type t = {
  (* Pristine replica used only as the template for per-version
     engines: [Engine.refresh template db] inherits every creation
     parameter (policy, selection, partial, fallback), the shared
     metrics registry and the view set's rewriting-plan cache, which
     every version therefore shares (a shape searched at one version is
     a hit at all others); the subsequent [replicate] gives the new
     engine evaluation and leaf caches of its own, so versions never
     thrash each other's evaluation cache.  The versions' derivations
     run under the template's cache lock and evaluation cache, as the
     IDB cell of a refresh does. *)
  template : Engine.t;
  metrics : Metrics.t;
  capacity : int;
  mutable store : VS.t;
  (* MRU-first assoc list of materialized per-version engines, trimmed
     to [capacity] (the head version is never evicted). *)
  mutable engines : (VS.version * Engine.t) list;
  (* The IDB cell of every version materialized so far, newest version
     first, held weakly: a new per-version engine's cell links to the
     newest live one at or below its version, so it can continue that
     cell's derivation (see [Engine.refresh]) after the LRU above has
     dropped its engine.  An entry lives as long as something holds its
     cell — an engine, or a link from an uncomputed cell. *)
  mutable lineage : (VS.version * Engine.cell Weak.t) list;
  (* v1 digests of versions whose untagged stamps were verified: each
     costs a pass over the whole version, and versions are immutable,
     so they are cached forever.  v2 digests need no cache: the
     per-relation hashes they fold are memoized on the store's relation
     values. *)
  v1_digests : (VS.version, string) Hashtbl.t;
  (* Head-version incremental registrations, keyed by the registered
     query's rendering.  Mutated only under [commit_mu]. *)
  mutable regs : (string * Incremental.t) list;
  (* Durable backing, when opened by [open_durable]: commits and
     registrations append to its WAL {e before} publishing, so the
     in-memory head never runs ahead of the log.  Read and written only
     under [commit_mu]. *)
  mutable durability : Dc_storage.Store.t option;
  (* [mu] guards every mutable field for brief reads/swaps; [commit_mu]
     serializes whole commits and registrations.  Order: [commit_mu]
     may take [mu]; never the reverse.  Nothing slow (materialization,
     citation, delta maintenance) runs under [mu], so in-flight
     [cite_at] calls never block on a concurrent commit. *)
  mu : Mutex.t;
  commit_mu : Mutex.t;
}

type 'a stamped = {
  version : VS.version;
  timestamp : int option;
  digest : string;
  result : 'a;
  from_registration : bool;
}

type cited = Engine.result stamped

let locked t f = Mutex.protect t.mu f
let committing t f = Mutex.protect t.commit_mu f

let weak x =
  let w = Weak.create 1 in
  Weak.set w 0 (Some x);
  w

(* [store] is a recovered store to serve instead of a fresh one over the
   engine's database. *)
let wrap ?(capacity = 4) store eng =
  if capacity < 1 then
    invalid_arg "Versioned_engine.of_engine: capacity must be >= 1";
  let store, engines =
    match store with
    | None -> (VS.create (Engine.database eng), [ (0, eng) ])
    | Some s ->
        (* A recovered store: the given engine's database is whatever
           it was created over (typically the version-0 load), which
           need not be [s]'s head — cache nothing and let [engine_at]
           materialize versions from the template on demand. *)
        (s, [])
  in
  (* The engine's cell is computed (creation validates the views over
     it), so it seeds the lineage when its database is a version's. *)
  let lineage =
    if Engine.database eng == VS.head_db store then
      [ (VS.head store, weak (Engine.cell eng)) ]
    else []
  in
  {
    template = Engine.replicate eng;
    metrics = Engine.metrics eng;
    capacity;
    store;
    engines;
    lineage;
    v1_digests = Hashtbl.create 8;
    regs = [];
    mu = Mutex.create ();
    commit_mu = Mutex.create ();
    durability = None;
  }

let of_engine ?capacity eng = wrap ?capacity None eng

let template t = t.template

let snapshot t = locked t (fun () -> t.store)
let store = snapshot
let head t = VS.head (snapshot t)
let versions t = VS.versions (snapshot t)
let timestamp t v = VS.timestamp (snapshot t) v
let metrics t = t.metrics
let cached_versions t = locked t (fun () -> List.map fst t.engines)
let registrations t = locked t (fun () -> List.map fst t.regs)

(* Evict LRU entries beyond [capacity], never the head version: a burst
   of historical [cite_at]s must not cold-start the head hot path. *)
let trim_unlocked t =
  let hd = VS.head t.store in
  let excess = List.length t.engines - t.capacity in
  if excess > 0 then begin
    let dropped = ref 0 in
    let kept_lru_first =
      List.filter
        (fun (v, _) ->
          if !dropped < excess && v <> hd then begin
            incr dropped;
            false
          end
          else true)
        (List.rev t.engines)
    in
    t.engines <- List.rev kept_lru_first;
    if !dropped > 0 then
      Metrics.with_sink t.metrics (fun () ->
          Metrics.record ~by:!dropped Metrics.Key.version_cache_evictions)
  end

let checkout t v =
  match VS.checkout (snapshot t) v with
  | None -> Error (Printf.sprintf "version %d not in store" v)
  | Some db -> Ok db

(* The newest live cell at or below [v], with its version; dead entries
   are dropped on the way.  Called under [mu]. *)
let ancestor_unlocked t v =
  t.lineage <- List.filter (fun (_, w) -> Weak.check w 0) t.lineage;
  List.find_map
    (fun (u, w) ->
      if u <= v then Option.map (fun c -> (u, c)) (Weak.get w 0) else None)
    t.lineage

let add_lineage_unlocked t v cell =
  let newer, older =
    List.partition (fun (u, _) -> u > v) (List.remove_assoc v t.lineage)
  in
  t.lineage <- newer @ ((v, weak cell) :: older)

let engine_at t v =
  let cached =
    locked t (fun () ->
        match List.assoc_opt v t.engines with
        | Some eng ->
            t.engines <- (v, eng) :: List.remove_assoc v t.engines;
            Some eng
        | None -> None)
  in
  match cached with
  | Some eng ->
      Metrics.with_sink t.metrics (fun () ->
          Metrics.record Metrics.Key.version_cache_hits);
      Ok eng
  | None ->
      Result.map
        (fun db ->
          Metrics.with_sink t.metrics (fun () ->
              Metrics.record Metrics.Key.version_cache_misses);
          (* A refresh computes nothing (its IDB cell derives on the
             first cite that reads it), so building is cheap; it runs
             outside [mu] all the same.  A concurrent miss on the same
             version may build twice: the race loser's engine is
             dropped, its cell most likely never forced. *)
          let ancestor =
            match Engine.program t.template with
            | None -> None (* nothing to derive *)
            | Some _ ->
                let store, ancestor =
                  locked t (fun () -> (t.store, ancestor_unlocked t v))
                in
                Option.bind ancestor (fun (u, cell) ->
                    Option.map (fun d -> (cell, d)) (VS.delta_between store u v))
          in
          let eng =
            Metrics.with_sink t.metrics (fun () ->
                Metrics.record_time "version_materialize" (fun () ->
                    Engine.replicate (Engine.refresh ?ancestor t.template db)))
          in
          Log.debug (fun m -> m "materialized engine for version %d" v);
          locked t (fun () ->
              match List.assoc_opt v t.engines with
              | Some raced -> raced
              | None ->
                  t.engines <- (v, eng) :: t.engines;
                  add_lineage_unlocked t v (Engine.cell eng);
                  trim_unlocked t;
                  eng))
        (checkout t v)

let digest_at t v =
  Result.map
    (fun db ->
      Metrics.with_sink t.metrics (fun () ->
          Metrics.record_time "fixity_digest" (fun () -> Fixity.digest_v2 db)))
    (checkout t v)

let v1_digest_at t v =
  match locked t (fun () -> Hashtbl.find_opt t.v1_digests v) with
  | Some d -> Ok d
  | None ->
      Result.map
        (fun db ->
          let d = Fixity.digest_db db in
          locked t (fun () -> Hashtbl.replace t.v1_digests v d);
          d)
        (checkout t v)

let verify t v digest =
  Result.bind (Fixity.scheme_of digest) (fun scheme ->
      Result.map (String.equal digest)
        (match scheme with
        | Fixity.V1 -> v1_digest_at t v
        | Fixity.V2 -> digest_at t v))

let stamped t v ~from_registration result =
  Result.map
    (fun digest ->
      {
        version = v;
        timestamp = VS.timestamp (snapshot t) v;
        digest;
        result;
        from_registration;
      })
    (digest_at t v)

let reg_key q = Cq.Query.to_string q

(* A head-version query with a registration takes its evaluation from
   it, any other from the version's engine; both end the same way. *)
let serve_at t v q ending =
  let from_reg =
    locked t (fun () ->
        if v = VS.head t.store then List.assoc_opt (reg_key q) t.regs
        else None)
  in
  match from_reg with
  | Some reg ->
      stamped t v ~from_registration:true
        (ending (Incremental.engine reg) (Incremental.evaluation reg))
  | None ->
      Result.bind (engine_at t v) (fun eng ->
          stamped t v ~from_registration:false
            (ending eng (Engine.evaluate eng q)))

let cite_at t v q = serve_at t v q (fun eng -> Engine.result_of eng q)
let summary_at t v q = serve_at t v q Engine.summary_of

let cite t q = cite_at t (head t) q

let register_gen ~durable t q =
  committing t @@ fun () ->
  let hd = VS.head t.store in
  Result.bind (engine_at t hd) @@ fun eng ->
  let reg = Incremental.register eng q in
  let key = reg_key q in
  let logged =
    match t.durability with
    | Some d when durable -> Dc_storage.Store.append_register d key
    | _ -> Ok ()
  in
  Result.map
    (fun () ->
      locked t (fun () ->
          t.regs <- (key, reg) :: List.remove_assoc key t.regs))
    logged

let register t q = register_gen ~durable:true t q

(* The one way a data directory is opened.  The engine is made over
   [db] for a fresh store and over the recovered head otherwise (its
   database then only types the views: [wrap] serves the recovered
   versions).  Recovered registrations are re-armed without
   appending them again, or every restart would grow the log with
   duplicates. *)
let open_durable ?capacity ?fsync ?mode ?fresh ?db ~dir make =
  Result.map
    (fun (storage, recovery) ->
      let store =
        Option.map (fun (r : Dc_storage.Store.recovery) -> r.store) recovery
      in
      let base =
        match store with None -> Option.get db | Some s -> VS.head_db s
      in
      let eng =
        try make base
        with e ->
          Dc_storage.Store.close storage;
          raise e
      in
      let t = wrap ?capacity store eng in
      t.durability <- Some storage;
      Option.iter
        (fun (r : Dc_storage.Store.recovery) ->
          List.iter
            (fun q ->
              match
                Result.bind (Cq.Parser.parse_query q)
                  (register_gen ~durable:false t)
              with
              | Ok () -> ()
              | Error e ->
                  Log.warn (fun m -> m "cannot re-arm registration %S: %s" q e))
            r.registrations)
        recovery;
      (t, storage, recovery))
    (Dc_storage.Store.open_ ~digest:Fixity.digest_db ?fsync ?mode ?fresh ?db
       ~dir ())

(* Every step that can fail runs before the append, and the append
   before the publish: a commit either logs and publishes its version,
   or fails leaving the log, the head and the registrations on the
   previous version. *)
let commit_delta t delta =
  committing t @@ fun () ->
  match VS.apply_head t.store delta with
  | exception Not_found ->
      Error "delta touches a relation absent from the database"
  | exception Invalid_argument e -> Error e
  | new_db -> (
      let store', v = VS.commit ~delta t.store new_db in
      (* Registrations advance through the SAME database value the
         store commits ([apply_head] computed it once): head and
         derived state cannot diverge. *)
      match
        List.map
          (fun (k, reg) ->
            (k, Incremental.apply_delta ~new_base:new_db reg delta))
          t.regs
      with
      | exception e ->
          Error
            (Printf.sprintf "commit aborted: maintaining a registration: %s"
               (Printexc.to_string e))
      | regs' -> (
          (* WAL before publish: the delta becomes durable (to the armed
             fsync policy) while [t.store] still shows the old head.  An
             append failure aborts the commit — the caller sees Error and
             no state changed, so the log can never lag the head. *)
          let logged =
            match t.durability with
            | None -> Ok ()
            | Some d ->
                let at = Option.value ~default:0 (VS.timestamp store' v) in
                Dc_storage.Store.append_commit d ~version:v ~at delta
          in
          match logged with
          | Error e -> Error ("commit not durable: " ^ e)
          | Ok () ->
              Metrics.with_sink t.metrics (fun () ->
                  Metrics.record Metrics.Key.version_commits;
                  match regs' with
                  | [] -> ()
                  | _ :: _ ->
                      Metrics.record
                        ~by:(List.length regs')
                        Metrics.Key.registrations_maintained);
              Log.debug (fun m ->
                  m "commit_delta: version %d, %d registration(s) maintained"
                    v (List.length regs'));
              locked t (fun () ->
                  t.store <- store';
                  t.regs <- regs';
                  trim_unlocked t);
              Ok v))
