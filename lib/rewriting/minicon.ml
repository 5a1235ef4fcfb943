module Cq = Dc_cq

(* MCD deduplication key: the view, the covered subgoals and the
   candidate atom with its occurrence-specific fresh variables numbered
   in order of first occurrence.  Terms stay typed ([Int 1], [Float 1.0]
   and [Str "1"] print alike but are different constants), and the
   renaming keeps query variables and fresh ones apart by a tag, so no
   constant or fresh variable can meet a query variable of its text. *)
module Key = Set.Make (struct
  type t = string * int list * Cq.Atom.t

  let compare (v, c, a) (w, d, b) =
    match String.compare v w with
    | 0 -> (
        match List.compare Int.compare c d with
        | 0 -> Cq.Atom.compare a b
        | n -> n)
    | n -> n
end)

let canonical_atom query atom =
  let qvars = Cq.Query.all_vars query in
  let table = Hashtbl.create 8 in
  let norm = function
    | Cq.Term.Const _ as t -> t
    | Cq.Term.Var v when List.mem v qvars -> Cq.Term.Var ("q" ^ v)
    | Cq.Term.Var v -> (
        match Hashtbl.find_opt table v with
        | Some k -> k
        | None ->
            let k = Cq.Term.Var (Printf.sprintf "f%d" (Hashtbl.length table)) in
            Hashtbl.add table v k;
            k)
  in
  Cq.Atom.make (Cq.Atom.pred atom) (List.map norm (Cq.Atom.args atom))

let descriptions views query =
  let body = Array.of_list (Cq.Query.body query) in
  let n = Array.length body in
  let distinguished = Cq.Query.head_vars query in
  let subgoals_with v =
    List.filter
      (fun i -> List.mem v (Cq.Atom.var_list body.(i)))
      (List.init n Fun.id)
  in
  let counter = ref 0 in
  let results = ref [] in
  let emit cand = results := cand :: !results in
  let try_view seed view =
    incr counter;
    let fresh = View.freshen view !counter in
    let fresh_def = View.definition fresh in
    let fresh_body = Array.of_list (Cq.Query.body fresh_def) in
    let head_vars = Cq.Query.head_vars fresh_def in
    let exist_vars = Cq.Query.existential_vars fresh_def in
    let qvars = Cq.Query.all_vars query in
    (* Classify the members of one unification class. *)
    let class_info cls =
      let has_const =
        List.exists (function Cq.Term.Const _ -> true | _ -> false) cls
      in
      let has_head =
        List.exists
          (function Cq.Term.Var v -> List.mem v head_vars | _ -> false)
          cls
      in
      let has_exist =
        List.exists
          (function Cq.Term.Var v -> List.mem v exist_vars | _ -> false)
          cls
      in
      let class_qvars =
        List.filter_map
          (function
            | Cq.Term.Var v when List.mem v qvars -> Some v
            | _ -> None)
          cls
      in
      (has_const, has_head, has_exist, class_qvars)
    in
    (* [extend] grows the MCD until coverage is closed: any query
       variable swallowed by a view existential forces every subgoal
       using it into the coverage. *)
    let rec extend classes covered pending =
      match pending with
      | [] -> (
          match
            Candidate.of_classes ~check_exposure:true ~query ~view ~fresh
              ~classes
              ~covered:(List.sort compare covered)
              ()
          with
          | Some cand -> emit cand
          | None -> ())
      | g :: rest ->
          Array.iter
            (fun batom ->
              if String.equal (Cq.Atom.pred batom) (Cq.Atom.pred body.(g))
              then
                match Cq.Unify.Classes.union_atoms classes batom body.(g) with
                | None -> ()
                | Some classes' -> check classes' (g :: covered) rest)
            fresh_body
    and check classes covered pending =
      (* Scan every class for C1 violations and closure obligations. *)
      let ok, extra =
        List.fold_left
          (fun (ok, extra) cls ->
            if not ok then (ok, extra)
            else
              let has_const, has_head, has_exist, class_qvars =
                class_info cls
              in
              if has_exist && not has_head then
                if has_const then (false, extra)
                else if List.exists (fun v -> List.mem v distinguished) class_qvars
                then (false, extra)
                else
                  let missing =
                    List.concat_map subgoals_with class_qvars
                    |> List.filter (fun j ->
                           (not (List.mem j covered))
                           && (not (List.mem j pending))
                           && not (List.mem j extra))
                  in
                  (ok, extra @ missing)
              else (ok, extra))
          (true, [])
          (Cq.Unify.Classes.classes classes)
      in
      if ok then extend classes covered (pending @ extra)
    in
    extend Cq.Unify.Classes.empty [] [ seed ]
  in
  for seed = 0 to n - 1 do
    List.iter
      (fun view -> try_view seed view)
      (View.Set.with_predicate views (Cq.Atom.pred body.(seed)))
  done;
  (* Deduplicate: the same MCD is reachable from every seed it covers. *)
  let seen = ref Key.empty in
  List.filter
    (fun (c : Candidate.t) ->
      let key = (View.name c.view, c.covered, canonical_atom query c.atom) in
      if Key.mem key !seen then false
      else begin
        seen := Key.add key !seen;
        true
      end)
    (List.rev !results)
