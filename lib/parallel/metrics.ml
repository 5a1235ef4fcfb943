module Key = struct
  let eval_index_builds = "eval_index_builds"
  let eval_cache_hits = "eval_cache_hits"
  let eval_cache_misses = "eval_cache_misses"
  let plan_compiles = "plan_compiles"
  let eval_plan_hits = "eval_plan_hits"
  let leaf_cache_hits = "leaf_cache_hits"
  let leaf_cache_misses = "leaf_cache_misses"
  let plan_cache_hits = "plan_cache_hits"
  let plan_cache_misses = "plan_cache_misses"
  let rewriting_candidates = "rewriting_candidates"
  let rewriting_verified = "rewriting_verified"
  let rewriting_kept = "rewriting_kept"
  let containment_checks = "containment_checks"
  let engine_lock_waits = "engine_lock_waits"
  let cache_lost_races = "cache_lost_races"
  let server_requests = "server_requests"
  let server_errors = "server_errors"
  let server_queue_depth = "server_queue_depth"
  let server_busy_sheds = "server_busy_sheds"
  let server_batches = "server_batches"
  let version_commits = "version_commits"
  let version_cache_hits = "version_cache_hits"
  let version_cache_misses = "version_cache_misses"
  let version_cache_evictions = "version_cache_evictions"
  let registrations_maintained = "registrations_maintained"
  let wal_appends = "wal_appends"
  let wal_fsyncs = "wal_fsyncs"
  let wal_group_commits = "wal_group_commits"
  let wal_close_fsync_failures = "wal_close_fsync_failures"
  let snapshots_written = "snapshots_written"
  let recovery_replayed_deltas = "recovery_replayed_deltas"
  let datalog_fixpoints = "datalog_fixpoints"
  let datalog_iterations = "datalog_iterations"
  let datalog_scratch_derivations = "datalog_scratch_derivations"
  let datalog_continued_derivations = "datalog_continued_derivations"
  let datalog_rederived_strata = "datalog_rederived_strata"
  let stats_column_scans = "stats_column_scans"
  let eval_scan_orders = "eval_scan_orders"
  let eval_block_sorts = "eval_block_sorts"

  let all =
    [
      plan_cache_hits;
      plan_cache_misses;
      leaf_cache_hits;
      leaf_cache_misses;
      eval_cache_hits;
      eval_cache_misses;
      eval_index_builds;
      plan_compiles;
      eval_plan_hits;
      rewriting_candidates;
      rewriting_verified;
      rewriting_kept;
      containment_checks;
      engine_lock_waits;
      cache_lost_races;
      server_requests;
      server_errors;
      server_queue_depth;
      server_busy_sheds;
      server_batches;
      version_commits;
      version_cache_hits;
      version_cache_misses;
      version_cache_evictions;
      registrations_maintained;
      wal_appends;
      wal_fsyncs;
      wal_group_commits;
      wal_close_fsync_failures;
      snapshots_written;
      recovery_replayed_deltas;
      datalog_fixpoints;
      datalog_iterations;
      datalog_scratch_derivations;
      datalog_continued_derivations;
      datalog_rederived_strata;
      stats_column_scans;
      eval_scan_orders;
      eval_block_sorts;
    ]
end

(* ------------------------------------------------------------------ *)
(* One cell per name, shared by every thread and domain: a counter is
   one atomic int, a timer two (total nanoseconds and calls).

   A name's cell is found in an immutable map published through an
   atomic, so the record path takes no lock.  Only a name's first use
   takes the registry's mutex, to copy the map with the new cell and
   publish the copy.  [order] holds the names in reverse display order:
   the well-known counters, installed at [create], then every other
   name as first used. *)

module Names = Map.Make (String)

type 'a table = { cells : 'a Names.t; order : string list }
type timer = { ns : int Atomic.t; calls : int Atomic.t }

type t = {
  mu : Mutex.t;  (** serializes the publication of new names *)
  counters : int Atomic.t table Atomic.t;
  timers : timer table Atomic.t;
}

let create () =
  let cells =
    List.fold_left
      (fun cells k -> Names.add k (Atomic.make 0) cells)
      Names.empty Key.all
  in
  {
    mu = Mutex.create ();
    counters = Atomic.make { cells; order = List.rev Key.all };
    timers = Atomic.make { cells = Names.empty; order = [] };
  }

let default = create ()

let cell t table make name =
  match Names.find_opt name (Atomic.get table).cells with
  | Some c -> c
  | None ->
      Mutex.protect t.mu (fun () ->
          let tb = Atomic.get table in
          match Names.find_opt name tb.cells with
          | Some c -> c
          | None ->
              let c = make () in
              Atomic.set table
                { cells = Names.add name c tb.cells; order = name :: tb.order };
              c)

let counter t = cell t t.counters (fun () -> Atomic.make 0)

let timer_cell t =
  cell t t.timers (fun () -> { ns = Atomic.make 0; calls = Atomic.make 0 })

let incr ?(by = 1) t name = ignore (Atomic.fetch_and_add (counter t name) by)

let raise_to t name v =
  let c = counter t name in
  let rec go () =
    let cur = Atomic.get c in
    if v > cur && not (Atomic.compare_and_set c cur v) then go ()
  in
  go ()

let charge t name ns =
  let tm = timer_cell t name in
  ignore (Atomic.fetch_and_add tm.ns ns);
  Atomic.incr tm.calls

let add_time t name s = charge t name (Float.to_int (s *. 1e9))

(* Reads are atomic per cell.  A timer's two cells are read one after
   the other, so a read concurrent with writers may pair a total with a
   call count one event apart. *)

let count t name =
  match Names.find_opt name (Atomic.get t.counters).cells with
  | Some c -> Atomic.get c
  | None -> 0

let counters t =
  let tb = Atomic.get t.counters in
  List.rev_map (fun k -> (k, Atomic.get (Names.find k tb.cells))) tb.order

let read_timer tm = (float_of_int (Atomic.get tm.ns) /. 1e9, Atomic.get tm.calls)

let timer t name =
  match Names.find_opt name (Atomic.get t.timers).cells with
  | Some tm -> read_timer tm
  | None -> (0., 0)

let timers t =
  let tb = Atomic.get t.timers in
  List.rev_map (fun k -> (k, read_timer (Names.find k tb.cells))) tb.order

let reset t =
  Names.iter (fun _ c -> Atomic.set c 0) (Atomic.get t.counters).cells;
  Names.iter
    (fun _ tm ->
      Atomic.set tm.ns 0;
      Atomic.set tm.calls 0)
    (Atomic.get t.timers).cells

(* ------------------------------------------------------------------ *)
(* The registries in scope on a domain, each once, with the number of
   [with_sink] calls for it still open on any of the domain's threads.
   The set is replaced whole by compare-and-set, so threads entering
   and leaving together never lose or strand an entry.  A spawned
   domain gets an empty set before it runs ([split_from_parent]) and
   the initial domain's is made here, so no two threads of a domain
   ever race to create its set. *)

let scopes : (t * int) list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key
    ~split_from_parent:(fun _ -> Atomic.make [])
    (fun () -> Atomic.make [])

let () = ignore (Domain.DLS.get scopes)

let rec update set f =
  let cur = Atomic.get set in
  if not (Atomic.compare_and_set set cur (f cur)) then update set f

let enter m set =
  if List.exists (fun (r, _) -> r == m) set then
    List.map (fun (r, n) -> if r == m then (r, n + 1) else (r, n)) set
  else (m, 1) :: set

let leave m =
  List.filter_map (fun (r, n) ->
      if r != m then Some (r, n) else if n > 1 then Some (r, n - 1) else None)

let with_sink m f =
  (* [default] takes every event already *)
  if m == default then f ()
  else begin
    let set = Domain.DLS.get scopes in
    update set (enter m);
    Fun.protect ~finally:(fun () -> update set (leave m)) f
  end

(* Apply [f] to [default] and every registry in scope on this domain. *)
let each f =
  f default;
  List.iter (fun (m, _) -> f m) (Atomic.get (Domain.DLS.get scopes))

let record ?by name = each (fun m -> incr ?by m name)
let record_max name v = each (fun m -> raise_to m name v)

let record_time name f =
  let t0 = Dc_clock.Monotonic.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let ns = Int64.to_int (Int64.sub (Dc_clock.Monotonic.now_ns ()) t0) in
      each (fun m -> charge m name ns))
    f

(* ------------------------------------------------------------------ *)

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%-22s = %d@." k v) (counters t);
  List.iter
    (fun (k, (total, calls)) ->
      Format.fprintf ppf "%-22s : %.3f ms / %d call%s@." k (total *. 1000.)
        calls
        (if calls = 1 then "" else "s"))
    (timers t)

let to_json t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"counters\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%S:%d" k v))
    (counters t);
  Buffer.add_string buf "},\"timers\":{";
  List.iteri
    (fun i (k, (total, calls)) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "%S:{\"ms\":%.3f,\"calls\":%d}" k (total *. 1000.)
           calls))
    (timers t);
  Buffer.add_string buf "}}";
  Buffer.contents buf
