(** Length + CRC record framing shared by the WAL and snapshot files:
    [len:u32le][crc32:u32le][payload]. *)

val write : Buffer.t -> string -> unit
(** Append one framed payload to the buffer. *)

val to_string : string -> string
(** The framed bytes of one payload. *)

type read_result =
  | Frame of string * int  (** payload, offset just past the frame *)
  | End  (** clean end of input *)
  | Corrupt of string
      (** truncated header/payload, implausible length, or CRC
          mismatch — the reason scanning must stop {e at this offset} *)

val read : string -> int -> read_result
(** [read s pos] reads the frame starting at [pos].  Total: corruption
    and truncation come back as {!Corrupt}, never an exception. *)
