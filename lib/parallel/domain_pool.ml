(* A fixed set of worker domains behind one task queue, plus the
   chunked fan-out combinators built on it.  No work stealing: inputs
   are split into contiguous chunks up front (deterministic, cache
   friendly over immutable data), one task per chunk.

   The calling domain is always a worker for its own fan-out: it runs
   the first chunk itself and then helps drain the queue before
   blocking, so a fan-out makes progress even with a pool of size 1,
   from inside another task, or after [shutdown]. *)

let log_src = Logs.Src.create "datacite.parallel" ~doc:"Domain pool"

module Log = (val Logs.src_log log_src)

(* Read once at startup: the answer cannot change while we run, and a
   plain let avoids [Lazy]'s domain-unsafety. *)
let cores = max 1 (Domain.recommended_domain_count ())
let available_cores () = cores

let effective ~requested =
  if requested < 1 then invalid_arg "Domain_pool.effective: requested < 1";
  min requested cores

type t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  size : int;
}

let size t = t.size

(* Tasks are wrapped by [run_all] and never raise. *)
let worker t =
  let rec next () =
    Mutex.lock t.mu;
    while Queue.is_empty t.tasks && not t.stopping do
      Condition.wait t.nonempty t.mu
    done;
    (* drain the queue before exiting on shutdown *)
    if Queue.is_empty t.tasks then Mutex.unlock t.mu
    else begin
      let task = Queue.pop t.tasks in
      Mutex.unlock t.mu;
      task ();
      next ()
    end
  in
  next ()

let create ?(clamp = true) ~domains () =
  if domains < 1 then invalid_arg "Domain_pool.create: domains < 1";
  (* On hardware with fewer cores than requested domains, extra domains
     only add minor-GC barriers: clamp to the core count so a pool
     "of 8" on a 1-core box degrades to sequential execution in the
     caller.  [clamp:false] forces the requested width (tests that
     exercise the cross-domain machinery itself). *)
  let domains = if clamp then effective ~requested:domains else domains in
  let t =
    {
      mu = Mutex.create ();
      nonempty = Condition.create ();
      tasks = Queue.create ();
      stopping = false;
      workers = [];
      size = domains;
    }
  in
  (* the caller's domain counts toward [domains], so spawn one fewer *)
  t.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  if domains > 1 then
    Log.debug (fun m -> m "pool of %d domains (%d spawned)" domains (domains - 1));
  t

let shutdown t =
  Mutex.lock t.mu;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.mu;
  if not already then List.iter Domain.join workers

let with_pool ?clamp ~domains f =
  let t = create ?clamp ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let chunk ?(min_chunk = 1) ~chunks xs =
  if chunks < 1 then invalid_arg "Domain_pool.chunk: chunks < 1";
  if min_chunk < 1 then invalid_arg "Domain_pool.chunk: min_chunk < 1";
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else
    (* cap the chunk count so every chunk carries at least [min_chunk]
       items — a fan-out whose per-task work does not cover the queue
       hand-off should raise [min_chunk] rather than eat the cost *)
    let k = min (min chunks n) (max 1 (n / min_chunk)) in
    (* contiguous chunks whose sizes differ by at most one *)
    List.init k (fun i ->
        let lo = i * n / k and hi = (i + 1) * n / k in
        Array.to_list (Array.sub arr lo (hi - lo)))

let run_all t thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  if n = 0 then []
  else if n = 1 then [ thunks.(0) () ]
  else begin
    let results = Array.make n None in
    let error = ref None in
    let pending = ref n in
    let mu = Mutex.create () in
    let all_done = Condition.create () in
    (* capture the caller's metrics scopes once; every task (queued or
       run here) executes under them *)
    let in_scope = Metrics.capture () in
    let task i () =
      in_scope (fun () ->
          let r =
            try Ok (thunks.(i) ())
            with ex -> Error (ex, Printexc.get_raw_backtrace ())
          in
          Mutex.lock mu;
          (match r with
          | Ok v -> results.(i) <- Some v
          | Error e -> if !error = None then error := Some e);
          decr pending;
          if !pending = 0 then Condition.signal all_done;
          Mutex.unlock mu)
    in
    (* offload every chunk but the first; run that one here *)
    Mutex.lock t.mu;
    for i = 1 to n - 1 do
      Queue.push (task i) t.tasks
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mu;
    task 0 ();
    (* help: run queued tasks (ours or a concurrent caller's — they are
       self-contained) instead of blocking while work is pending *)
    let rec help () =
      Mutex.lock t.mu;
      let tk = Queue.take_opt t.tasks in
      Mutex.unlock t.mu;
      match tk with
      | Some tk ->
          tk ();
          help ()
      | None -> ()
    in
    help ();
    Mutex.lock mu;
    while !pending > 0 do
      Condition.wait all_done mu
    done;
    Mutex.unlock mu;
    match !error with
    | Some (ex, bt) -> Printexc.raise_with_backtrace ex bt
    | None -> Array.to_list (Array.map Option.get results)
  end

let parallel_map ?min_chunk t f xs =
  match chunk ?min_chunk ~chunks:t.size xs with
  | [] -> []
  | [ only ] -> List.map f only
  | chunks -> List.concat (run_all t (List.map (fun c () -> List.map f c) chunks))

let parallel_fold ?min_chunk t ~fold ~init ~merge xs =
  match chunk ?min_chunk ~chunks:t.size xs with
  | [] -> init
  | [ only ] -> List.fold_left fold init only
  | chunks ->
      run_all t (List.map (fun c () -> List.fold_left fold init c) chunks)
      |> List.fold_left merge init
