module Cq = Dc_cq
module Rw = Dc_rewriting

let preds q = List.sort String.compare (List.map Cq.Atom.pred (Cq.Query.body q))

let search ~level ?(max_candidates = 100_000) views query =
  let query = Cq.Query.strip_params query in
  let candidates = ref 0 in
  let verified = ref 0 in
  let truncated = ref false in
  let kept = ref [] in
  let consider atoms =
    incr candidates;
    if !candidates > max_candidates then begin
      truncated := true;
      raise Exit
    end;
    match
      Cq.Query.make ~name:(Cq.Query.name query) ~head:(Cq.Query.head query)
        ~body:(List.sort_uniq Cq.Atom.compare atoms) ()
    with
    | Error _ -> ()
    | Ok cand ->
        if Rw.Expansion.is_equivalent_rewriting views query cand then begin
          incr verified;
          let cand = Rw.Rewrite.minimize_rewriting views query cand in
          (* equivalent minimal rewritings use the same predicates *)
          let preds = preds cand in
          if
            not
              (List.exists
                 (fun (p, r) -> p = preds && Cq.Containment.equivalent r cand)
                 !kept)
          then kept := (preds, cand) :: !kept
        end
  in
  let rec product chosen = function
    | [] -> consider (List.rev chosen)
    | bucket :: rest ->
        List.iter
          (fun (e : Rw.Candidate.t) -> product (e.atom :: chosen) rest)
          bucket
  in
  (try product [] (Array.to_list (Rw.Bucket.buckets ~level views query))
   with Exit -> ());
  let queries =
    List.mapi
      (fun i (_, r) ->
        Cq.Query.with_name (Printf.sprintf "%s_rw%d" (Cq.Query.name query) i) r)
      (List.rev !kept)
  in
  {
    Rw.Rewrite.queries;
    stats =
      {
        candidates = !candidates;
        verified = !verified;
        kept = List.length queries;
        truncated = !truncated;
      };
  }
