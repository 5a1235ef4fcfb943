module Cq = Dc_cq
module Rw = Dc_rewriting

type query_report = {
  query : Cq.Query.t;
  rewriting_count : int;
  covered : bool;
  ambiguous : bool;
  min_citation_size : int option;
}

type report = {
  total : int;
  covered : int;
  ambiguous : int;
  per_query : query_report list;
}

let analyze ?db views workload =
  let per_query =
    List.map
      (fun q ->
        let rewritings = (Rw.Rewrite.search views q).Rw.Rewrite.queries in
        let n = List.length rewritings in
        let min_size =
          match (db, rewritings) with
          | Some db, _ :: _ ->
              Some
                (List.fold_left
                   (fun acc r -> min acc (Rw.Cost.citation_size db views r))
                   max_int rewritings)
          | _ -> None
        in
        {
          query = q;
          rewriting_count = n;
          covered = n > 0;
          ambiguous = n > 1;
          min_citation_size = min_size;
        })
      workload
  in
  {
    total = List.length per_query;
    covered =
      List.length (List.filter (fun (r : query_report) -> r.covered) per_query);
    ambiguous =
      List.length
        (List.filter (fun (r : query_report) -> r.ambiguous) per_query);
    per_query;
  }

let coverage_ratio r =
  if r.total = 0 then 1.0 else float_of_int r.covered /. float_of_int r.total

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>workload: %d queries, %d covered (%.0f%%), %d ambiguous@ %a@]"
    r.total r.covered
    (100. *. coverage_ratio r)
    r.ambiguous
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf qr ->
         Format.fprintf ppf "%s: %d rewriting(s)%a"
           (Cq.Query.name qr.query) qr.rewriting_count
           (fun ppf -> function
             | None -> ()
             | Some s -> Format.fprintf ppf ", min citation size %d" s)
           qr.min_citation_size))
    r.per_query
