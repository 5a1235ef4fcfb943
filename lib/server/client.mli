(** Blocking client for the citation server. *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** Raises [Unix.Unix_error] when the server is unreachable. *)

val request : t -> string -> string option
(** Send one request line, read one response line; [None] when the
    server closed the connection. *)

val send : t -> string -> unit
(** Queue one line (no flush) — the pipelining primitive: queue many,
    {!flush_out} once, then {!recv} the responses in request order. *)

val flush_out : t -> unit

val recv : t -> string option
(** Read one response line; [None] when the server closed the
    connection. *)

val close : t -> unit
