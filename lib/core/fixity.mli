(** Content digests of database versions — the paper's {e fixity}
    principle (§3): "Data may evolve over time, and a citation should
    bring back the data as seen at the time it was cited."
    {!Versioned_engine} keeps every committed version citable
    ({!Versioned_engine.cite_at}) and stamps each citation with its
    version's digest from this module, so a reader can check later
    ({!Versioned_engine.verify}) that the version still hashes to what
    the citation recorded. *)

(** {2 Content digests}

    A fixity {e digest} is a hash of a full database version, so "the
    data as seen at the time it was cited" can be checked, not just
    re-obtained: a citation carrying the digest of its version detects
    any accidental change to the stored version.  Two schemes exist,
    told apart by a tag.

    {b v1} ({!digest_db}) is 32 lowercase hex digits, untagged: the MD5
    of a canonical rendering — relations in name order, each tuple's
    values printed as text ({!Dc_relational.Value.to_string}) and joined
    by control bytes.  Snapshots, recovery and the golden digests of the
    test suite use it, and it stays byte-for-byte stable.  The rendering
    is not injective, and these known collisions are kept for
    compatibility: [Int 1] and [Str "1"] digest alike, as do [Null] and
    [Str "NULL"], floats equal to six significant digits ([%g]), and a
    string containing a separator byte against its bytes split over two
    columns.  It costs a pass over every tuple.

    {b v2} ({!digest_v2}) is 32 lowercase hex digits followed by the
    tag [":v2"], so it can never equal a v1 digest: the MD5 of each
    relation's length-prefixed name and its
    {!Dc_relational.Multiset_hash} (a lane-wise modular sum of per-tuple
    MD5s over an injective, typed, exact encoding: floats by their bits,
    strings length-prefixed), in name order.  The per-relation hashes
    are memoized on the relation values and carried through commits, so
    a committed version's digest costs O(#relations) and a commit
    O(|delta|) tuple hashes.  [CITE_AT] stamps carry v2.

    Both schemes detect accidental change, not adversarial collisions:
    MD5 is broken for collisions, and 128 bits of additive state are
    weaker still against a chosen-input attack. *)

val digest_db : Dc_relational.Database.t -> string
(** The v1 digest.  Structurally equal databases digest identically
    regardless of construction order; any tuple change that alters the
    rendering, in any relation, changes the digest. *)

val digest_v2 : Dc_relational.Database.t -> string
(** The v2 digest.  Structurally equal databases (tuples equal bit for
    bit) digest identically regardless of construction order; any tuple
    change in any relation, and moving a tuple between relations,
    changes it. *)

type scheme = V1 | V2

val scheme_of : string -> (scheme, string) result
(** The scheme a digest was issued under: [V2] for a [":v2"]-tagged
    digest, [V1] for an untagged one (no [':']), and [Error] naming the
    tag for any other tag. *)
