(** Choosing which views to define — the paper's "Defining citations"
    open problem (§3), beside {!Dc_citation.Coverage}'s analysis of a
    given view set: a minimal subset that keeps a workload's coverage,
    and views that would cover what is left uncovered. *)

val greedy_minimal_views :
  Dc_rewriting.View.Set.t ->
  Dc_cq.Query.t list ->
  Dc_rewriting.View.t list
(** A minimal (not necessarily minimum) subset of the views preserving
    the workload's coverage count: repeatedly drops any view whose
    removal does not lose a covered query. *)

val suggest_views :
  Dc_rewriting.View.Set.t ->
  Dc_cq.Query.t list ->
  Dc_cq.Query.t list
(** View definitions that would cover the workload's uncovered queries:
    each uncovered query becomes a candidate view (renamed
    ["Suggested<i>"]), deduplicated up to equivalence and dropped when
    an already-suggested or existing view covers it.  Adding all
    suggestions makes the workload fully covered; attaching citation
    queries to them is the owner's job. *)
