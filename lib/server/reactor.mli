(** The event-driven connection core: one thread multiplexing every
    client socket with [Unix.select], non-blocking buffered reads
    through the incremental {!Protocol.Decoder}, and write-readiness
    flushing of responses — the server's workers never touch a socket.

    {b Pipelining and order.}  Each connection holds a FIFO of response
    slots, one per request in arrival order; a request completes by
    filling its slot (from any thread) and waking the reactor through a
    self-pipe.  Only the front slot may flush, so responses always
    leave in request order however the worker pool interleaves.

    {b Backpressure.}  Two bounds, two behaviours:
    - at most [max_pipeline] in-flight requests per connection — beyond
      it the reactor answers {!Protocol.busy_line} immediately without
      queueing (the caller sheds its own pool-queue overflow the same
      way via [`Reject]);
    - at most [conn_buffer_bytes] of unflushed output per connection —
      beyond it the connection stops being {e read} until the client
      drains responses (flow control, no error).

    {b Timeouts.}  A front slot unfilled for [request_timeout_s] is
    answered with [ERR "request timed out"]; the worker's late reply,
    if it ever comes, is dropped with the slot.

    {b Batch invariant.}  A framed [CITE_BATCH n] always answers
    exactly [n] lines: sheds, rejects and timeouts replicate their
    error line [n] times, so a client counting responses off the wire
    never desynchronizes.

    {b Limits.}  [select] handles at most [FD_SETSIZE] (1024)
    descriptors; [max_conns] caps accepted connections below that, and
    excess clients wait in the listen backlog.

    {!start} installs [Signal_ignore] for SIGPIPE (a client closing
    mid-write must cost an [EPIPE] on that connection, not the
    process). *)

type config = {
  max_line_bytes : int;  (** per-line bound fed to each decoder *)
  max_batch : int;  (** largest accepted [CITE_BATCH] count *)
  max_pipeline : int;  (** in-flight requests per connection *)
  conn_buffer_bytes : int;  (** unflushed output bytes per connection *)
  max_conns : int;  (** accepted-connection cap (select's fd budget) *)
  request_timeout_s : float;
}

val default_config : config
(** 64 KiB lines, batch ≤ 1024, pipeline ≤ 128, 1 MiB output buffers,
    900 connections, 30 s timeout. *)

type handlers = {
  on_request :
    Protocol.request ->
    reply:(string -> unit) ->
    [ `Accepted | `Reject of string ];
      (** Runs on the reactor thread for every well-formed request
          except QUIT (answered internally) — so it must only enqueue,
          never execute.  [`Accepted] promises [reply] will be called
          exactly once, from any thread, with the response payload (no
          trailing newline; batch responses embed interior newlines —
          one line per query).  [`Reject line] answers [line]
          immediately; the request was not queued. *)
  on_receive : unit -> unit;  (** every framed item (the request count) *)
  on_error : unit -> unit;
      (** every reactor-emitted ERR line: parse errors, pipeline sheds,
          timeouts.  Worker-side errors are the caller's to count. *)
  on_busy : unit -> unit;  (** pipeline-bound sheds (subset of on_error) *)
}

type t

val start :
  ?config:config -> listen_fd:Unix.file_descr -> handlers:handlers -> unit -> t
(** Spawn the reactor thread over a bound, listening socket.  The
    listener is switched to non-blocking and polled for accepts, but
    remains owned by the caller — {!stop} does not close it. *)

val drain : t -> unit
(** Stop accepting and stop reading; in-flight requests still complete,
    flush and close normally.  Idempotent, returns immediately. *)

val stop : t -> unit
(** Drain, flush whatever responses are already (or become) available —
    giving slow clients a bounded grace — then close every connection
    and join the reactor thread.  Call after the worker pool has
    drained so every accepted request's response is on its way.
    Idempotent. *)
