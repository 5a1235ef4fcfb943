(** Additive multiset hashes of tuples — the per-relation half of the
    v2 fixity digest ({!Dc_citation.Fixity}).

    The hash of a multiset of tuples is the lane-wise sum, modulo
    [2^32] in each of four lanes, of the MD5s of the tuples' encodings
    (LtHash's construction over Bellare and Micciancio's incremental
    hashing).  Sums commute, so the hash of a set does not depend on
    the order its tuples are visited, and adding or removing one tuple
    updates it in O(1) with {!add} or {!sub}.

    The per-tuple encoding is injective, typed and exact: the arity,
    then per value a type tag and its payload (integers and timestamps
    as 64-bit words, floats by their IEEE bits, strings length-prefixed,
    nulls as a bare tag).  [Int 1] and [Str "1"], [Null] and
    [Str "NULL"], or one string against its bytes split over two columns
    all encode differently.

    Like MD5 itself, the hash detects accidental change, not an
    adversary: 128 bits of additive state can be steered to a collision
    far more cheaply than MD5. *)

type t

val add : t -> t -> t
val sub : t -> t -> t
(** The hash of a multiset union and difference. *)

val of_tuple : Tuple.t -> t
(** The hash of the one-tuple multiset. *)

val of_tuples : ((Tuple.t -> unit) -> unit) -> t
(** [of_tuples iter] sums {!of_tuple} over every tuple [iter] visits,
    reusing one encoding buffer. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the hash's 16 bytes (lanes little-endian) — the form the
    database digest folds. *)
