(** Enumeration of (minimal) equivalent rewritings of a query using a
    set of views — the "{Q1,…,Qn}" of the paper's section 2.

    Three enumeration strategies are provided for experiment E2; they
    generate different numbers of candidates but all verify candidates
    the same way (expansion equivalence, Chandra–Merlin), so they agree
    on the result set wherever they are complete:

    - [Naive]: cartesian product of unfiltered per-subgoal buckets;
    - [Bucket]: cartesian product of exposure-filtered buckets;
    - [Minicon]: exact cover by MiniCon descriptions (default).

    With [~partial:true], subgoals may also be covered by their own base
    atoms, yielding the paper's partial rewritings (Definition 2.1);
    uncited base atoms then simply contribute no citation. *)

type strategy = Naive | Bucket | Minicon

type stats = {
  candidates : int;  (** candidate rewritings generated *)
  verified : int;  (** candidates that passed expansion equivalence *)
  kept : int;  (** minimal, deduplicated rewritings returned *)
  truncated : bool;  (** candidate generation hit [max_candidates] *)
}

val pp_stats : Format.formatter -> stats -> unit

val stats_to_json : stats -> string
(** One-line JSON object with the four labeled fields. *)

type outcome = { queries : Dc_cq.Query.t list; stats : stats }
(** A labeled search result: the kept rewritings plus the enumeration
    statistics. *)

val search :
  ?strategy:strategy ->
  ?partial:bool ->
  ?max_candidates:int ->
  View.Set.t ->
  Dc_cq.Query.t ->
  outcome
(** Minimal equivalent rewritings, deduplicated up to view-level
    equivalence, named ["<q>_rw<i>"] in enumeration order, plus the
    enumeration stats.  [max_candidates] (default [100_000]) bounds the
    search.  Every enumerator also counts its candidates, verifications
    and kept rewritings into {!Dc_parallel.Metrics} as it goes. *)

val minimize_rewriting :
  ?deps:Dc_cq.Dependency.t list ->
  View.Set.t ->
  Dc_cq.Query.t ->
  Dc_cq.Query.t ->
  Dc_cq.Query.t
(** [minimize_rewriting views q r] drops atoms of [r] while the
    expansion stays equivalent to [q]. *)

val rewritings_under_deps :
  deps:Dc_cq.Dependency.t list ->
  View.Set.t ->
  Dc_cq.Query.t ->
  Dc_cq.Query.t list * stats
(** Equivalent rewritings {e modulo dependencies} (keys, FDs, inclusion
    dependencies): candidate bodies are subsets of the unfiltered
    bucket entries with up to [#subgoals + 1] atoms, verified with the
    chase.  This finds rewritings the dependency-free enumerators
    cannot — e.g. reconstructing a relation from two key-joined
    projections — at exponential cost in the entry count, bounded by
    [100_000] candidates. *)

val maximally_contained :
  View.Set.t ->
  Dc_cq.Query.t ->
  Dc_cq.Query.t list * stats
(** The maximally-contained rewriting as a set of CQ disjuncts (wrap
    them in {!Dc_cq.Ucq} for union semantics): every MiniCon candidate
    whose expansion is contained in the query, pruned to the ones
    maximal under expansion containment.  This is the classic
    query-answering-using-views answer when no equivalent rewriting
    exists; the citation engine uses equivalent rewritings per the
    paper, but coverage analysis and best-effort answering can fall
    back to this.  Enumeration stops after [100_000] candidates. *)
