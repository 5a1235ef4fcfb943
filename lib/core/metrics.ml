(* The registry lives in [dc_parallel], below every layer that records
   into it; this alias keeps [Dc_citation.Metrics] for callers above. *)
include Dc_parallel.Metrics
