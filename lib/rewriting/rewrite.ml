module Cq = Dc_cq
module Metrics = Dc_parallel.Metrics

type stats = {
  candidates : int;
  verified : int;
  kept : int;
  truncated : bool;
}

type outcome = { queries : Cq.Query.t list; stats : stats }

exception Budget_exhausted

(* Candidate budget of every search. *)
let max_candidates = 100_000

(* MiniCon's exact cover: every combination of descriptions whose
   coverage partitions the query's subgoals, always extended by one
   covering the smallest uncovered subgoal.  With [partial], a subgoal
   may also be covered by its own base atom. *)
let minicon ~partial views query consume =
  let n = List.length (Cq.Query.body query) in
  let mcds = Minicon.descriptions views query in
  let mcds =
    if partial then
      mcds @ List.filter_map (Candidate.base_entry query) (List.init n Fun.id)
    else mcds
  in
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

(* The candidate loop of every search.  [enumerate] feeds candidate
   atom lists to it until they run out or the budget does.  Each
   well-formed candidate goes to [verify], and each one it returns to
   [add], which gets the kept list (newest first) and returns the new
   one, or [None] to drop the candidate.  The kept rewritings of
   [query] ([rewriting] reads one out of a kept value) are named
   ["<q>_<suffix><i>"] in enumeration order. *)
let run ~suffix ~enumerate ~verify ~add ~rewriting query =
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
    (* Merge duplicate atoms: one occurrence of a view can serve several
       subgoals. *)
    match
      Cq.Query.make ~name:(Cq.Query.name query) ~head:(Cq.Query.head query)
        ~body:(List.sort_uniq Cq.Atom.compare atoms) ()
    with
    | Error _ -> ()
    | Ok cand -> (
        match verify cand with
        | None -> ()
        | Some v -> (
            incr verified;
            Metrics.(record Key.rewriting_verified);
            match add !kept v with
            | None -> ()
            | Some k ->
                kept := k;
                Metrics.(record Key.rewriting_kept)))
  in
  (try enumerate consume with Budget_exhausted -> ());
  let queries =
    List.mapi
      (fun i v ->
        Cq.Query.with_name
          (Printf.sprintf "%s_%s%d" (Cq.Query.name query) suffix i)
          (rewriting v))
      (List.rev !kept)
  in
  {
    queries;
    stats =
      {
        candidates = !candidates;
        verified = !verified;
        kept = List.length queries;
        truncated = !truncated;
      };
  }

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

(* An equivalent rewriting, minimized. *)
let verify_equivalent ?deps views query cand =
  if Expansion.is_equivalent_rewriting ?deps views query cand then
    Some (minimize_rewriting ?deps views query cand)
  else None

let pred_key q =
  String.concat ","
    (List.sort String.compare (List.map Cq.Atom.pred (Cq.Query.body q)))

let search ?(partial = false) views query =
  let query = Cq.Query.strip_params query in
  (* Two minimal rewritings can only be equivalent when they use the same
     multiset of view predicates, so dedup runs the (quadratic)
     equivalence check within those groups only. *)
  let groups : (string, Cq.Query.t list) Hashtbl.t = Hashtbl.create 64 in
  let add kept cand =
    let key = pred_key cand in
    let group = Option.value ~default:[] (Hashtbl.find_opt groups key) in
    if List.exists (fun r -> Cq.Containment.equivalent r cand) group then None
    else begin
      Hashtbl.replace groups key (cand :: group);
      Some (cand :: kept)
    end
  in
  run ~suffix:"rw"
    ~enumerate:(minicon ~partial views query)
    ~verify:(verify_equivalent views query)
    ~add ~rewriting:Fun.id query

(* Extra atoms a candidate body may have over the query's subgoals. *)
let max_extra_atoms = 1

module Atom_set = Set.Make (Cq.Atom)

let rewritings_under_deps ~deps views query =
  let query = Cq.Query.strip_params query in
  let max_atoms = List.length (Cq.Query.body query) + max_extra_atoms in
  (* Entry pool: every unfiltered (view, body atom, subgoal) unification,
     deduplicated by the candidate atom (typed: [Int 1] and [Float 1.0]
     print alike but are different atoms). *)
  let entries =
    Array.to_list (Bucket.buckets ~level:Bucket.Naive views query)
    |> List.concat
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
    |> Array.of_list
  in
  (* subsets of size 1..max_atoms *)
  let enumerate consume =
    let rec subsets i chosen size =
      if size > 0 && chosen <> [] then consume (List.rev chosen);
      if size < max_atoms then
        for j = i to Array.length entries - 1 do
          subsets (j + 1) (entries.(j) :: chosen) (size + 1)
        done
    in
    for j = 0 to Array.length entries - 1 do
      subsets (j + 1) [ entries.(j) ] 1
    done
  in
  let add kept cand =
    if List.exists (fun r -> Cq.Containment.equivalent r cand) kept then None
    else Some (cand :: kept)
  in
  let { queries; stats } =
    run ~suffix:"drw" ~enumerate
      ~verify:(verify_equivalent ~deps views query)
      ~add ~rewriting:Fun.id query
  in
  (queries, stats)

let maximally_contained views query =
  let query = Cq.Query.strip_params query in
  (* keep each contained rewriting with its expansion for the
     maximality pruning *)
  let verify cand =
    match Expansion.expand views cand with
    | Some (expansion, _) when Cq.Containment.contained expansion query ->
        Some (cand, expansion)
    | _ -> None
  in
  (* a disjunct subsumed by a kept one is dropped; one kept drops the
     kept disjuncts it subsumes *)
  let add kept ((_, expansion) as v) =
    if List.exists (fun (_, e') -> Cq.Containment.contained expansion e') kept
    then None
    else
      Some
        (v
        :: List.filter
             (fun (_, e') -> not (Cq.Containment.contained e' expansion))
             kept)
  in
  let { queries; stats } =
    run ~suffix:"mcr"
      ~enumerate:(minicon ~partial:false views query)
      ~verify ~add ~rewriting:fst query
  in
  (queries, stats)
