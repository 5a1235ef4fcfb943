(** Versioned database storage — the substrate for citation {e fixity}.

    The paper's section 3 ("Fixity") requires that a citation "bring back
    the data as seen at the time it was cited"; the approach it cites
    (Proell & Rauber) is versioning plus a version id in the citation.
    This store keeps every committed database version; since databases are
    persistent values, versions share structure and a commit costs only
    the delta. *)

type version = int

type t

val create : ?clock:(unit -> int) -> Database.t -> t
(** [create db] starts a store whose version 0 is [db].  [clock] supplies
    commit timestamps (seconds); it defaults to a deterministic counter
    (version [v] is stamped [v + 1]) so tests and benchmarks are
    reproducible. *)

val restore : version:version -> at:int -> Database.t -> t
(** [restore ~version ~at db] rebuilds a store whose sole entry is
    [version], stamped [at] — the recovery seed: a snapshot re-enters
    the store exactly as it was committed, and subsequent default-clock
    commits keep ticking monotonically from [at].  Raises
    [Invalid_argument] on a negative version. *)

val head : t -> version
val head_db : t -> Database.t

val commit : ?delta:Delta.t -> t -> Database.t -> t * version
(** Records a new version whose contents are the given database.
    [delta], when given, must be the delta that turns the head into
    that database: the version keeps it for {!delta_between}. *)

val commit_at : ?delta:Delta.t -> t -> at:int -> Database.t -> t * version
(** {!commit} with an explicit timestamp, bypassing the clock — WAL
    replay uses this to reproduce original commit times. *)

val apply_head : t -> Delta.t -> Database.t
(** [apply_head store delta] is [Delta.apply (head_db store) delta] —
    the {e single} delta-application path.  [commit_delta] goes through
    it, and callers that maintain derived state alongside the store
    (e.g. incremental citation registrations) must commit the database
    this function returns rather than re-applying the delta themselves,
    so the store head and the derived state can never diverge on change
    ordering.  Raises like {!Delta.apply}. *)

val commit_delta : t -> Delta.t -> t * version
(** Applies a delta to the head (through {!apply_head}) and commits the
    result, keeping the delta. *)

val checkout : t -> version -> Database.t option

val checkout_exn : t -> version -> Database.t
val timestamp : t -> version -> int option
val versions : t -> version list

val version_at : t -> int -> version option
(** [version_at store time] is the latest version committed at or before
    [time]. *)

val delta_between : t -> version -> version -> Delta.t option
(** [delta_between store v1 v2] is a delta turning [v1] into [v2]:
    for [v1 <= v2] whose versions [v1 + 1] to [v2] all kept their commit
    deltas, those deltas in commit order, in O(their size) with no
    relation read; otherwise {!Delta.between} of the two databases.
    [None] when either version is not in the store. *)
