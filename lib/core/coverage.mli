(** Workload coverage analysis — the paper's "Defining citations" open
    problem (§3): do the declared views "cover" the expected query
    workload, and do they give concise and unambiguous results?

    A query is {e covered} when it has at least one equivalent rewriting
    over the views, {e ambiguous} when it has more than one (so [+R]
    actually has to choose), and {e concise} relative to the size of its
    cheapest citation. *)

type query_report = {
  query : Dc_cq.Query.t;
  rewriting_count : int;
  covered : bool;
  ambiguous : bool;
  min_citation_size : int option;
      (** cheapest estimated citation size over the rewritings, when
          covered and a database is supplied *)
}

type report = {
  total : int;
  covered : int;
  ambiguous : int;
  per_query : query_report list;
}

val analyze :
  ?db:Dc_relational.Database.t ->
  Dc_rewriting.View.Set.t ->
  Dc_cq.Query.t list ->
  report
(** [db] enables the citation-size estimates. *)

val coverage_ratio : report -> float

val pp_report : Format.formatter -> report -> unit
