(** A content-addressed store of extended citations.

    The paper's §3 ("Size of citations") asks whether the returned
    citation object should be "an encoding of or reference to an
    extended citation which is a searchable object".  This store
    implements the reference side: a citation set is deposited once and
    denoted by a short stable key (to put in a bibliography), while the
    full, possibly large citation remains retrievable and searchable.

    Keys are {!Dc_citation.Citation.Set.content_key}s, so equal citation
    sets share one entry and keys are stable across runs. *)

type t

val create : unit -> t

val put : t -> Dc_citation.Citation.Set.t -> string
(** Deposits the set and returns its key ["cite:<hex>"]; idempotent. *)

val get : t -> string -> Dc_citation.Citation.Set.t option

val entries : t -> int

val search : t -> string -> (string * Dc_citation.Citation.t) list
(** Case-insensitive substring search over view names, parameter values
    and snippet fields; returns (key, citation) pairs, each citation
    listed once per containing entry. *)

val reference : t -> Dc_citation.Citation.Set.t -> string option
(** The key the set is stored under, if it has been deposited. *)
