module Cq = Dc_cq
module Metrics = Dc_parallel.Metrics

type strategy = Naive | Bucket | Minicon

type stats = {
  candidates : int;
  verified : int;
  kept : int;
  truncated : bool;
}

type outcome = { queries : Cq.Query.t list; stats : stats }

exception Budget_exhausted

(* Enumerate entry combinations for each strategy, invoking [consume] on
   every candidate atom list.  [consume] raises [Budget_exhausted] to
   stop enumeration. *)
let enumerate ~strategy ~partial views query consume =
  let n = List.length (Cq.Query.body query) in
  let with_base bucket i =
    if partial then
      match Candidate.base_entry query i with
      | Some e -> bucket @ [ e ]
      | None -> bucket
    else bucket
  in
  match strategy with
  | Naive | Bucket ->
      let level = if strategy = Naive then Bucket.Naive else Bucket.Filtered in
      let buckets = Bucket.buckets ~level views query in
      let buckets = Array.mapi (fun i b -> with_base b i) buckets in
      let rec product i chosen =
        if i = n then consume (List.rev chosen)
        else
          List.iter
            (fun (e : Candidate.t) -> product (i + 1) (e.atom :: chosen))
            buckets.(i)
      in
      if Array.for_all (fun b -> b <> []) buckets then product 0 []
  | Minicon ->
      let mcds = Minicon.descriptions views query in
      let mcds =
        if partial then
          mcds
          @ List.filter_map (Candidate.base_entry query) (List.init n Fun.id)
        else mcds
      in
      (* Exact cover: always extend with an MCD covering the smallest
         uncovered subgoal, keeping coverage pairwise disjoint. *)
      let rec cover covered chosen =
        match List.find_opt (fun i -> not (List.mem i covered)) (List.init n Fun.id) with
        | None -> consume (List.rev_map (fun (e : Candidate.t) -> e.atom) chosen)
        | Some next ->
            List.iter
              (fun (e : Candidate.t) ->
                if
                  List.mem next e.covered
                  && List.for_all (fun i -> not (List.mem i covered)) e.covered
                then cover (e.covered @ covered) (e :: chosen))
              mcds
      in
      cover [] []

let candidate_query query k atoms =
  (* Merge duplicate atoms: one occurrence of a view can serve several
     bucket slots. *)
  let atoms = List.sort_uniq Cq.Atom.compare atoms in
  match
    Cq.Query.make
      ~name:(Printf.sprintf "%s_rw%d" (Cq.Query.name query) k)
      ~head:(Cq.Query.head query) ~body:atoms ()
  with
  | Ok q -> Some q
  | Error _ -> None

let minimize_rewriting ?deps views query r =
  let rec go r =
    let body = Cq.Query.body r in
    let try_drop atom =
      let body' = List.filter (fun a -> not (a == atom)) body in
      if body' = [] then None
      else
        match
          Cq.Query.make ~name:(Cq.Query.name r) ~head:(Cq.Query.head r)
            ~body:body' ()
        with
        | Error _ -> None
        | Ok r' ->
            if Expansion.is_equivalent_rewriting ?deps views query r' then
              Some r'
            else None
    in
    match List.find_map try_drop body with None -> r | Some r' -> go r'
  in
  go r

let pred_key q =
  String.concat ","
    (List.sort String.compare (List.map Cq.Atom.pred (Cq.Query.body q)))

(* Candidate budget: [search]'s default, and fixed for
   [rewritings_under_deps] and [maximally_contained]. *)
let max_candidates = 100_000

let search ?(strategy = Minicon) ?(partial = false)
    ?(max_candidates = max_candidates) views query =
  let query = Cq.Query.strip_params query in
  let candidates = ref 0 in
  let verified = ref 0 in
  let truncated = ref false in
  (* Each candidate is verified (expansion equivalence), minimized and
     deduplicated in enumeration order, which fixes the kept list and
     hence the [_rw<i>] names.  Candidates can only be equivalent when
     they use the same multiset of view predicates, so dedup groups by
     that key and runs the (quadratic) equivalence check within groups
     only. *)
  let kept : Cq.Query.t list ref = ref [] in
  let by_preds : (string, Cq.Query.t list) Hashtbl.t = Hashtbl.create 64 in
  let consume atoms =
    incr candidates;
    Metrics.(record Key.rewriting_candidates);
    if !candidates > max_candidates then begin
      truncated := true;
      raise Budget_exhausted
    end;
    match candidate_query query !candidates atoms with
    | None -> ()
    | Some cand ->
        if Expansion.is_equivalent_rewriting views query cand then begin
          incr verified;
          Metrics.(record Key.rewriting_verified);
          let cand = minimize_rewriting views query cand in
          let key = pred_key cand in
          let group =
            Option.value ~default:[] (Hashtbl.find_opt by_preds key)
          in
          if not (List.exists (fun r -> Cq.Containment.equivalent r cand) group)
          then begin
            Hashtbl.replace by_preds key (cand :: group);
            (* [kept] is held in reverse enumeration order; one final
               [List.rev] restores it (O(n) total, not O(n²) appends). *)
            kept := cand :: !kept;
            Metrics.(record Key.rewriting_kept)
          end
        end
  in
  (try enumerate ~strategy ~partial views query consume
   with Budget_exhausted -> ());
  let kept =
    List.mapi
      (fun i r ->
        Cq.Query.with_name (Printf.sprintf "%s_rw%d" (Cq.Query.name query) i) r)
      (List.rev !kept)
  in
  {
    queries = kept;
    stats =
      {
        candidates = !candidates;
        verified = !verified;
        kept = List.length kept;
        truncated = !truncated;
      };
  }

(* Extra atoms a candidate body may have over the query's subgoals. *)
let max_extra_atoms = 1

module Atom_set = Set.Make (Cq.Atom)

let rewritings_under_deps ~deps views query =
  let query = Cq.Query.strip_params query in
  let n = List.length (Cq.Query.body query) in
  let max_atoms = n + max_extra_atoms in
  (* Entry pool: every unfiltered (view, body atom, subgoal) unification,
     deduplicated by the candidate atom (typed: [Int 1] and [Float 1.0]
     print alike but are different atoms). *)
  let buckets = Bucket.buckets ~level:Bucket.Naive views query in
  let entries =
    Array.to_list buckets |> List.concat
    |> List.map (fun (e : Candidate.t) -> e.atom)
  in
  let entries =
    let seen = ref Atom_set.empty in
    List.filter
      (fun atom ->
        if Atom_set.mem atom !seen then false
        else begin
          seen := Atom_set.add atom !seen;
          true
        end)
      entries
  in
  let candidates = ref 0 in
  let verified = ref 0 in
  let truncated = ref false in
  let kept = ref [] in
  let consume atoms =
    incr candidates;
    Metrics.(record Key.rewriting_candidates);
    if !candidates > max_candidates then begin
      truncated := true;
      raise Budget_exhausted
    end;
    match candidate_query query !candidates atoms with
    | None -> ()
    | Some cand ->
        if Expansion.is_equivalent_rewriting ~deps views query cand then begin
          incr verified;
          Metrics.(record Key.rewriting_verified);
          let cand = minimize_rewriting ~deps views query cand in
          let duplicate =
            List.exists (fun r -> Cq.Containment.equivalent r cand) !kept
          in
          if not duplicate then begin
            (* reverse order, restored by the final [List.rev] *)
            kept := cand :: !kept;
            Metrics.(record Key.rewriting_kept)
          end
        end
  in
  let entries = Array.of_list entries in
  (* enumerate subsets of size 1..max_atoms *)
  let rec subsets i chosen size =
    if size > 0 && chosen <> [] then consume (List.rev chosen);
    if size < max_atoms then
      for j = i to Array.length entries - 1 do
        subsets (j + 1) (entries.(j) :: chosen) (size + 1)
      done
  in
  (try
     for j = 0 to Array.length entries - 1 do
       subsets (j + 1) [ entries.(j) ] 1
     done
   with Budget_exhausted -> ());
  let kept =
    List.mapi
      (fun i r ->
        Cq.Query.with_name
          (Printf.sprintf "%s_drw%d" (Cq.Query.name query) i)
          r)
      (List.rev !kept)
  in
  ( kept,
    {
      candidates = !candidates;
      verified = !verified;
      kept = List.length kept;
      truncated = !truncated;
    } )

let maximally_contained views query =
  let query = Cq.Query.strip_params query in
  let candidates = ref 0 in
  let verified = ref 0 in
  let truncated = ref false in
  (* keep each contained rewriting with its expansion for the
     maximality pruning *)
  let kept : (Cq.Query.t * Cq.Query.t) list ref = ref [] in
  let consume atoms =
    incr candidates;
    Metrics.(record Key.rewriting_candidates);
    if !candidates > max_candidates then begin
      truncated := true;
      raise Budget_exhausted
    end;
    match candidate_query query !candidates atoms with
    | None -> ()
    | Some cand -> (
        match Expansion.expand views cand with
        | None -> ()
        | Some (expansion, _) ->
            if Cq.Containment.contained expansion query then begin
              incr verified;
              Metrics.(record Key.rewriting_verified);
              let subsumed =
                List.exists
                  (fun (_, e') -> Cq.Containment.contained expansion e')
                  !kept
              in
              if not subsumed then begin
                (* drop previously kept disjuncts this one subsumes;
                   [kept] is in reverse order (filter preserves it, the
                   logical append is a cons), restored by the final
                   [List.rev] *)
                kept :=
                  (cand, expansion)
                  :: List.filter
                       (fun (_, e') ->
                         not (Cq.Containment.contained e' expansion))
                       !kept;
                Metrics.(record Key.rewriting_kept)
              end
            end)
  in
  (try enumerate ~strategy:Minicon ~partial:false views query consume
   with Budget_exhausted -> ());
  let kept =
    List.mapi
      (fun i (r, _) ->
        Cq.Query.with_name (Printf.sprintf "%s_mcr%d" (Cq.Query.name query) i) r)
      (List.rev !kept)
  in
  ( kept,
    {
      candidates = !candidates;
      verified = !verified;
      kept = List.length kept;
      truncated = !truncated;
    } )
