(* The event-driven connection core.

   One thread owns every client socket: it multiplexes readiness with
   [Unix.select], does non-blocking reads feeding each connection's
   incremental {!Protocol.Decoder}, hands complete requests to the
   caller's [on_request] (which submits them to a worker pool and
   answers later through the per-request [reply] callback), and flushes
   responses on write-readiness.  Workers never touch a socket; the
   reactor never executes a request.  The handoff back is a one-slot
   atomic per request plus a self-pipe write that wakes the select.

   Ordering: each connection keeps a FIFO of response slots, one per
   request in arrival order.  Only the slot at the front may flush, so
   pipelined responses always come back in request order no matter how
   the pool interleaves the work.

   Backpressure, two bounds:
   - [max_pipeline] requests may be in flight per connection; further
     requests are shed immediately with {!Protocol.busy_line} (the
     caller's pool-queue bound sheds the same way through [`Reject]).
     Shedding costs one ERR line, never the connection.
   - [conn_buffer_bytes] of unflushed output per connection; past it
     the reactor stops {e reading} that connection (it drops out of the
     select read set) until the client drains its responses — flow
     control, not an error. *)

let log_src = Logs.Src.create "datacite.reactor" ~doc:"Event-driven server core"

module Log = (val Logs.src_log log_src)

type config = {
  max_line_bytes : int;
  max_batch : int;
  max_pipeline : int;
  conn_buffer_bytes : int;
  max_conns : int;
  request_timeout_s : float;
}

let default_config =
  {
    max_line_bytes = 1 lsl 16;
    max_batch = 1024;
    max_pipeline = 128;
    conn_buffer_bytes = 1 lsl 20;
    (* select(2) tops out at FD_SETSIZE (1024) descriptors; leave slack
       for the listener, the wake pipe and whatever else the process
       holds.  Past the cap the listener just stops being polled, so
       excess connections wait in the accept backlog. *)
    max_conns = 900;
    request_timeout_s = 30.;
  }

type handlers = {
  on_request :
    Protocol.request ->
    reply:(string -> unit) ->
    [ `Accepted | `Reject of string ];
      (** Called on the reactor thread for every well-formed request
          (except QUIT, handled internally).  [`Accepted]: [reply] will
          be called exactly once, from any thread, with the response
          payload (no trailing newline; batches embed interior
          newlines).  [`Reject line]: answer [line] immediately — the
          request was not queued. *)
  on_receive : unit -> unit;  (** every framed item (the request count) *)
  on_error : unit -> unit;
      (** every reactor-emitted ERR line: parse errors, pipeline sheds,
          timeouts.  Worker-side errors are the caller's to count. *)
  on_busy : unit -> unit;  (** pipeline-bound sheds (subset of on_error) *)
}

type slot = {
  resp : string option Atomic.t;
  close_after : bool;
  enqueued_at : float;  (* monotonic; request-timeout bookkeeping *)
  lines : int;  (* response lines owed: CITE_BATCH n owes n, else 1 *)
}

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.Decoder.t;
  pending : slot Queue.t;  (* response slots, request order *)
  out : string Queue.t;  (* flushed-response byte chunks *)
  mutable out_off : int;  (* consumed prefix of the front chunk *)
  mutable out_len : int;  (* total unsent bytes across [out] *)
  mutable draining : bool;  (* no more reads: QUIT answered *)
  mutable eof : bool;
  mutable dead : bool;  (* write/read error: close without flushing *)
}

type phase = Running | Draining | Stopping

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  h : handlers;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  phase : phase Atomic.t;
  nconns : int Atomic.t;
  scratch : Bytes.t;  (* reactor-thread read buffer *)
  mutable conns : conn list;  (* reactor thread only *)
  mutable stop_deadline : float option;  (* set on first Stopping sight *)
  mutable thread : Thread.t option;
}

let wake_byte = Bytes.of_string "w"

(* Thread-safe; a full pipe means a wakeup is already pending, and a
   closed one means the reactor already exited — both fine to drop. *)
let wake t =
  try ignore (Unix.write t.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

let drain_wake t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | 0 -> ()
    | _ -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Per-connection plumbing (reactor thread only)                       *)

let enqueue_out conn payload =
  let chunk = payload ^ "\n" in
  Queue.push chunk conn.out;
  conn.out_len <- conn.out_len + String.length chunk

let push_filled conn ?(close = false) payload =
  Queue.push
    {
      resp = Atomic.make (Some payload);
      close_after = close;
      enqueued_at = Dc_clock.Monotonic.now_s ();
      lines = 1;
    }
    conn.pending

(* A CITE_BATCH n answers exactly n lines even when it is shed or times
   out — anything else would desynchronize a client counting batch
   responses off the wire. *)
let resp_lines = function
  | Protocol.Cite_batch qs -> List.length qs
  | _ -> 1

let replicate n line =
  if n <= 1 then line else String.concat "\n" (List.init n (fun _ -> line))

let dispatch t conn (item : Protocol.Decoder.item) =
  if not (conn.draining || conn.dead) then begin
    t.h.on_receive ();
    match item with
    | Error e ->
        t.h.on_error ();
        push_filled conn (Protocol.error_line e)
    | Ok Protocol.Quit ->
        (* Stop reading; anything the client pipelined after QUIT is
           never parsed, matching the close-on-QUIT the blocking server
           had. *)
        conn.draining <- true;
        push_filled conn ~close:true Protocol.ok_bye
    | Ok req ->
        let owed = resp_lines req in
        if Queue.length conn.pending >= t.cfg.max_pipeline then begin
          t.h.on_busy ();
          t.h.on_error ();
          push_filled conn (replicate owed Protocol.busy_line)
        end
        else begin
          let slot =
            {
              resp = Atomic.make None;
              close_after = false;
              enqueued_at = Dc_clock.Monotonic.now_s ();
              lines = owed;
            }
          in
          Queue.push slot conn.pending;
          match
            t.h.on_request req
              ~reply:(fun payload ->
                Atomic.set slot.resp (Some payload);
                wake t)
          with
          | `Accepted -> ()
          | `Reject line -> Atomic.set slot.resp (Some (replicate owed line))
        end
  end

let handle_readable t conn =
  match Unix.read conn.fd t.scratch 0 (Bytes.length t.scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> conn.dead <- true
  | 0 -> conn.eof <- true
  | n ->
      List.iter
        (dispatch t conn)
        (Protocol.Decoder.feed_sub conn.dec t.scratch ~pos:0 ~len:n)

(* Move completed front slots into the output queue, in order; a front
   slot past the request deadline is answered with the timeout error
   (the worker's late response, if any, is dropped with the slot). *)
let promote t conn =
  let rec go () =
    match Queue.peek_opt conn.pending with
    | None -> ()
    | Some slot -> (
        match Atomic.get slot.resp with
        | Some payload ->
            ignore (Queue.pop conn.pending);
            enqueue_out conn payload;
            if slot.close_after then conn.draining <- true;
            go ()
        | None ->
            if
              Dc_clock.Monotonic.now_s () -. slot.enqueued_at
              > t.cfg.request_timeout_s
            then begin
              ignore (Queue.pop conn.pending);
              t.h.on_error ();
              enqueue_out conn
                (replicate slot.lines (Protocol.error_line "request timed out"));
              go ()
            end)
  in
  go ()

let flush conn =
  let rec go () =
    match Queue.peek_opt conn.out with
    | None -> ()
    | Some chunk -> (
        let off = conn.out_off in
        let len = String.length chunk - off in
        match Unix.write_substring conn.fd chunk off len with
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> conn.dead <- true
        | n ->
            conn.out_len <- conn.out_len - n;
            if n = len then begin
              ignore (Queue.pop conn.out);
              conn.out_off <- 0;
              go ()
            end
            else conn.out_off <- off + n)
  in
  go ()

let closeable conn =
  conn.dead
  || (conn.eof || conn.draining)
     && Queue.is_empty conn.pending && conn.out_len = 0

let close_conn t conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Atomic.decr t.nconns

let accept_ready t =
  let rec go () =
    if Atomic.get t.nconns < t.cfg.max_conns then
      match Unix.accept ~cloexec:true t.listen_fd with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> () (* listener shut down *)
      | fd, _ ->
          Unix.set_nonblock fd;
          (* One select wakeup per pipelined burst beats Nagle's timer:
             responses must not sit in the kernel waiting for an ACK. *)
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          t.conns <-
            {
              fd;
              dec =
                Protocol.Decoder.create ~max_line_bytes:t.cfg.max_line_bytes
                  ~max_batch:t.cfg.max_batch ();
              pending = Queue.create ();
              out = Queue.create ();
              out_off = 0;
              out_len = 0;
              draining = false;
              eof = false;
              dead = false;
            }
            :: t.conns;
          Atomic.incr t.nconns;
          go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

(* How long a Stopping reactor keeps trying to flush already-computed
   responses to slow clients before closing them anyway. *)
let stop_flush_grace_s = 5.

let loop t =
  let rec go () =
    let phase = Atomic.get t.phase in
    (* Promote completed work and push bytes out eagerly — the socket is
       almost always writable, so most responses never wait for a
       select round. *)
    List.iter (fun c -> promote t c) t.conns;
    List.iter (fun c -> if c.out_len > 0 && not c.dead then flush c) t.conns;
    let live, finished = List.partition (fun c -> not (closeable c)) t.conns in
    t.conns <- live;
    List.iter (close_conn t) finished;
    let now = Dc_clock.Monotonic.now_s () in
    let give_up =
      match (phase, t.stop_deadline) with
      | Stopping, None ->
          t.stop_deadline <- Some (now +. stop_flush_grace_s);
          false
      | Stopping, Some d -> now >= d || t.conns = []
      | (Running | Draining), _ -> false
    in
    if give_up || (phase = Stopping && t.conns = []) then begin
      List.iter (close_conn t) t.conns;
      t.conns <- []
    end
    else begin
      let reads =
        t.wake_r
        :: (if phase = Running && Atomic.get t.nconns < t.cfg.max_conns then
              [ t.listen_fd ]
            else [])
        @ List.filter_map
            (fun c ->
              if
                phase = Running
                && not (c.draining || c.eof || c.dead)
                && c.out_len < t.cfg.conn_buffer_bytes
              then Some c.fd
              else None)
            t.conns
      in
      let writes =
        List.filter_map
          (fun c -> if c.out_len > 0 && not c.dead then Some c.fd else None)
          t.conns
      in
      (* The 50ms floor bounds how late a phase flip or request timeout
         can be noticed when no fd stirs; everything latency-critical
         arrives through readiness or the wake pipe. *)
      (match Unix.select reads writes [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* A descriptor vanished under the select (listener shut down
             during stop); the per-fd paths below will sort it out on
             the next pass. *)
          ()
      | ready_r, ready_w, _ ->
          if List.mem t.wake_r ready_r then drain_wake t;
          if List.mem t.listen_fd ready_r then accept_ready t;
          List.iter
            (fun c -> if List.mem c.fd ready_r then handle_readable t c)
            t.conns;
          List.iter
            (fun c -> if List.mem c.fd ready_w && not c.dead then flush c)
            t.conns);
      go ()
    end
  in
  go ();
  Log.debug (fun m -> m "reactor thread exiting")

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start ?(config = default_config) ~listen_fd ~handlers () =
  if config.max_pipeline < 1 then invalid_arg "Reactor.start: max_pipeline < 1";
  if config.conn_buffer_bytes < 1 then
    invalid_arg "Reactor.start: conn_buffer_bytes < 1";
  (* A client closing mid-flush must cost EPIPE on the write, not kill
     the process. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> ());
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg = config;
      listen_fd;
      h = handlers;
      wake_r;
      wake_w;
      phase = Atomic.make Running;
      nconns = Atomic.make 0;
      scratch = Bytes.create 65536;
      conns = [];
      stop_deadline = None;
      thread = None;
    }
  in
  t.thread <- Some (Thread.create loop t);
  t

let drain t =
  (match Atomic.get t.phase with
  | Running -> Atomic.set t.phase Draining
  | Draining | Stopping -> ());
  wake t

let stop t =
  (match Atomic.get t.phase with
  | Running | Draining -> Atomic.set t.phase Stopping
  | Stopping -> ());
  wake t;
  Option.iter Thread.join t.thread;
  t.thread <- None;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
