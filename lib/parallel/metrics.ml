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
    ]
end

let well_known =
  let h = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace h k ()) Key.all;
  h

(* ------------------------------------------------------------------ *)
(* Per-domain sinks.

   The hot path ([record] / [incr] / [add_time] on every counter bump
   of every cite) touches only plain, unsynchronized fields of a sink
   owned by the recording domain: no mutex, no atomic, no cache-line
   ping-pong between domains.  A registry aggregates its sinks at read
   time instead.

   A counter carries two fields because two aggregations coexist under
   one name: [adds] (from [incr]/[record]) sums across domains, [hw]
   (from [record_max], a high-water mark) maxes across them; the
   aggregate is [sum adds + max hw], which reduces to the natural value
   when a key is used through only one of the two (every key today
   is). *)

type counter = { mutable adds : int; mutable hw : int }
type timer = { mutable total_s : float; mutable calls : int }

type sink = {
  counters : (string, counter) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
}

type t = {
  id : int;  (** unique per registry; hashes the DLS sink table *)
  mu : Mutex.t;
      (** guards the sink list and the display-order bookkeeping —
          registration and read-side aggregation only, never the
          per-event hot path *)
  mutable sinks : sink list;
  mutable dyn_counters : string list;  (** reverse first-use order *)
  dyn_counter_seen : (string, unit) Hashtbl.t;
  mutable timer_names : string list;  (** reverse first-use order *)
  timer_seen : (string, unit) Hashtbl.t;
}

let next_id = Atomic.make 0

let create () =
  {
    id = Atomic.fetch_and_add next_id 1;
    mu = Mutex.create ();
    sinks = [];
    dyn_counters = [];
    dyn_counter_seen = Hashtbl.create 8;
    timer_names = [];
    timer_seen = Hashtbl.create 8;
  }

let default = create ()

(* Each domain keeps its own sink per registry.  Its table holds the
   registries weakly, so a registry — benches create thousands of
   short-lived engines, each with one — can be collected even though
   domains that recorded into it outlive it; the registry's own [sinks]
   list dies with the registry.  A domain's first touch of a registry
   is the only mutex in the recording path, taken once per (domain,
   registry) pair ever. *)
module Sinks =
  Domain_local.Make
    (struct
      type registry = t
      type t = registry

      let id t = t.id
    end)
    (struct
      type t = sink

      let create t =
        let s = { counters = Hashtbl.create 24; timers = Hashtbl.create 8 } in
        Mutex.protect t.mu (fun () -> t.sinks <- s :: t.sinks);
        s
    end)

(* First use of a dynamic name (amortized: once per key per domain)
   records it in the registry's display order under the lock. *)
let counter_for t s name =
  match Hashtbl.find_opt s.counters name with
  | Some c -> c
  | None ->
      let c = { adds = 0; hw = 0 } in
      Hashtbl.add s.counters name c;
      if not (Hashtbl.mem well_known name) then
        Mutex.protect t.mu (fun () ->
            if not (Hashtbl.mem t.dyn_counter_seen name) then begin
              Hashtbl.add t.dyn_counter_seen name ();
              t.dyn_counters <- name :: t.dyn_counters
            end);
      c

let timer_for t s name =
  match Hashtbl.find_opt s.timers name with
  | Some tm -> tm
  | None ->
      let tm = { total_s = 0.; calls = 0 } in
      Hashtbl.add s.timers name tm;
      Mutex.protect t.mu (fun () ->
          if not (Hashtbl.mem t.timer_seen name) then begin
            Hashtbl.add t.timer_seen name ();
            t.timer_names <- name :: t.timer_names
          end);
      tm

let incr ?(by = 1) t name =
  let c = counter_for t (Sinks.get t) name in
  c.adds <- c.adds + by

let record_max t name v =
  let c = counter_for t (Sinks.get t) name in
  if v > c.hw then c.hw <- v

let add_time t name s =
  let tm = timer_for t (Sinks.get t) name in
  tm.total_s <- tm.total_s +. s;
  tm.calls <- tm.calls + 1

(* ------------------------------------------------------------------ *)
(* Read-time aggregation.  Reading another domain's plain fields while
   it records is a data race by the letter of the memory model; in
   practice it only yields a slightly stale (never torn, never
   decreasing) value, which is exactly what a monitoring read wants.
   Joining a domain before reading (the benches and tests do) makes the
   read exact. *)

let agg_counter sinks name =
  List.fold_left
    (fun (sum, hw) s ->
      match Hashtbl.find_opt s.counters name with
      | None -> (sum, hw)
      | Some c -> (sum + c.adds, max hw c.hw))
    (0, 0) sinks
  |> fun (sum, hw) -> sum + hw

let agg_timer sinks name =
  List.fold_left
    (fun (total, calls) s ->
      match Hashtbl.find_opt s.timers name with
      | None -> (total, calls)
      | Some tm -> (total +. tm.total_s, calls + tm.calls))
    (0., 0) sinks

let snapshot t =
  Mutex.protect t.mu (fun () ->
      (t.sinks, List.rev t.dyn_counters, List.rev t.timer_names))

let count t name =
  let sinks, _, _ = snapshot t in
  agg_counter sinks name

let counters t =
  let sinks, dyn, _ = snapshot t in
  List.map (fun k -> (k, agg_counter sinks k)) (Key.all @ dyn)

let timer t name =
  let sinks, _, _ = snapshot t in
  agg_timer sinks name

let timers t =
  let sinks, _, names = snapshot t in
  List.map (fun k -> (k, agg_timer sinks k)) names

let sink_count t = Mutex.protect t.mu (fun () -> List.length t.sinks)

let per_sink t name =
  let sinks, _, _ = snapshot t in
  List.filter_map
    (fun s ->
      Option.map (fun c -> c.adds + c.hw) (Hashtbl.find_opt s.counters name))
    sinks

(* Zeroing other domains' sinks is only meaningful while they are not
   recording; callers (tests, the REPL between runs) reset at
   quiescence. *)
let reset t =
  let sinks, _, _ = snapshot t in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun _ c ->
          c.adds <- 0;
          c.hw <- 0)
        s.counters;
      Hashtbl.iter
        (fun _ tm ->
          tm.total_s <- 0.;
          tm.calls <- 0)
        s.timers)
    sinks

(* ------------------------------------------------------------------ *)
(* Dynamically scoped extra sinks — a stack per domain, so scopes never
   cross domains and worker domains never touch a shared list. *)

let scope_stack : t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* [targets] dedups by physical equality so nested [with_sink] on the
   same registry (engine calls re-entering engine calls) never
   double-counts. *)
let targets stack =
  List.fold_left
    (fun acc m -> if List.memq m acc then acc else m :: acc)
    [ default ] stack

let with_sink m f =
  let st = Domain.DLS.get scope_stack in
  st := m :: !st;
  Fun.protect
    ~finally:(fun () ->
      (* remove {e this} scope's frame — the first physically-equal
         one — wherever unwinding finds it *)
      let rec drop = function
        | [] -> []
        | x :: rest -> if x == m then rest else x :: drop rest
      in
      st := drop !st)
    f

let record ?by name =
  List.iter
    (fun m -> incr ?by m name)
    (targets !(Domain.DLS.get scope_stack))

let record_time name f =
  let t0 = Dc_clock.Monotonic.now_s () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Dc_clock.Monotonic.now_s () -. t0 in
      List.iter
        (fun m -> add_time m name dt)
        (targets !(Domain.DLS.get scope_stack)))
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
