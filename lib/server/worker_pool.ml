let log_src = Logs.Src.create "datacite.worker_pool" ~doc:"Request worker pool"

module Log = (val Logs.src_log log_src)

(* Read once at startup: the answer cannot change while we run, and a
   plain let avoids [Lazy]'s domain-unsafety. *)
let cores = max 1 (Domain.recommended_domain_count ())
let available_cores () = cores

let effective ~requested =
  if requested < 1 then invalid_arg "Worker_pool.effective: requested < 1";
  min requested cores

(* Workers are either systhreads (concurrency on one domain: cheap,
   jobs interleave at runtime-lock granularity) or domains (true
   parallelism: each worker runs on its own core).  The queue machinery
   is identical — stdlib Mutex/Condition are safe across both. *)
type runner = Sys_thread of Thread.t | Dom of unit Domain.t

type t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  capacity : int;
  mutable stopping : bool;
  mutable high_water : int;
  mutable runners : runner list;
}

type submit_result = Accepted | Overloaded | Shutting_down

(* A job failure costs that one request, never the worker.  Asynchronous
   runtime exceptions are the exception: the heap or stack is already
   compromised, so they are logged and re-raised (killing the worker)
   rather than swallowed. *)
let run_job job =
  try job () with
  | (Out_of_memory | Stack_overflow) as ex ->
      Log.err (fun m ->
          m "worker: fatal runtime exception %s — re-raising"
            (Printexc.to_string ex));
      raise ex
  | ex ->
      Log.err (fun m ->
          m "worker: job raised %s@.%s" (Printexc.to_string ex)
            (Printexc.get_backtrace ()))

let worker t =
  let rec next () =
    Mutex.lock t.mu;
    while Queue.is_empty t.jobs && not t.stopping do
      Condition.wait t.nonempty t.mu
    done;
    (* on shutdown the queue is drained before workers exit *)
    if Queue.is_empty t.jobs then Mutex.unlock t.mu
    else begin
      let job = Queue.pop t.jobs in
      Mutex.unlock t.mu;
      run_job job;
      next ()
    end
  in
  next ()

let create ?(domains = false) ~workers ~queue_capacity () =
  if workers < 1 then invalid_arg "Worker_pool.create: workers < 1";
  if queue_capacity < 1 then
    invalid_arg "Worker_pool.create: queue_capacity < 1";
  let t =
    {
      mu = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      capacity = queue_capacity;
      stopping = false;
      high_water = 0;
      runners = [];
    }
  in
  t.runners <-
    List.init workers (fun _ ->
        if domains then Dom (Domain.spawn (fun () -> worker t))
        else Sys_thread (Thread.create worker t));
  t

let submit t job =
  Mutex.lock t.mu;
  let result =
    if t.stopping then Shutting_down
    else if Queue.length t.jobs >= t.capacity then Overloaded
    else begin
      Queue.push job t.jobs;
      let depth = Queue.length t.jobs in
      if depth > t.high_water then t.high_water <- depth;
      Condition.signal t.nonempty;
      Accepted
    end
  in
  Mutex.unlock t.mu;
  result

let high_water t =
  Mutex.lock t.mu;
  let hw = t.high_water in
  Mutex.unlock t.mu;
  hw

let depth t =
  Mutex.lock t.mu;
  let d = Queue.length t.jobs in
  Mutex.unlock t.mu;
  d

let shutdown t =
  Mutex.lock t.mu;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  let runners = t.runners in
  t.runners <- [];
  Mutex.unlock t.mu;
  if not already then
    List.iter
      (function Sys_thread th -> Thread.join th | Dom d -> Domain.join d)
      runners
