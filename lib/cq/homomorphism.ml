(* Backtracking search for atom-list embeddings.

   The target atoms are grouped by predicate once; each source atom then
   only tries compatible targets.  Source atoms are processed in the
   given order; unifying a source atom against a target atom extends the
   current substitution or fails. *)

module Smap = Map.Make (String)

let group_by_pred atoms =
  List.fold_left
    (fun m a ->
      let existing = Option.value ~default:[] (Smap.find_opt (Atom.pred a) m) in
      Smap.add (Atom.pred a) (a :: existing) m)
    Smap.empty atoms

(* Match one source atom against one ground-side atom: source variables
   may bind to arbitrary target terms, source constants must equal the
   target term. *)
let match_atom subst src_atom dst_atom =
  if
    (not (String.equal (Atom.pred src_atom) (Atom.pred dst_atom)))
    || Atom.arity src_atom <> Atom.arity dst_atom
  then None
  else
    let rec go subst src dst =
      match (src, dst) with
      | [], [] -> Some subst
      | s :: src, d :: dst -> (
          match s with
          | Term.Const c -> (
              match d with
              | Term.Const c' when Dc_relational.Value.equal c c' ->
                  go subst src dst
              | _ -> None)
          | Term.Var v -> (
              match Subst.extend subst v d with
              | Some subst -> go subst src dst
              | None -> None))
      | _ -> None
    in
    go subst (Atom.args src_atom) (Atom.args dst_atom)

let search ~all ?(init = Subst.empty) src dst =
  let by_pred = group_by_pred dst in
  let results = ref [] in
  let exception Found of Subst.t in
  let rec go subst = function
    | [] ->
        if all then results := subst :: !results
        else raise_notrace (Found subst)
    | a :: rest ->
        let candidates =
          Option.value ~default:[] (Smap.find_opt (Atom.pred a) by_pred)
        in
        List.iter
          (fun cand ->
            match match_atom subst a cand with
            | Some subst -> go subst rest
            | None -> ())
          candidates
  in
  match go init src with
  | () -> !results
  | exception Found s -> [ s ]

let embed_atoms ?init src dst =
  match search ~all:false ?init src dst with [] -> None | s :: _ -> Some s

let embed_atoms_all src dst = search ~all:true src dst

(* The head condition is seeded as an initial substitution: each head
   variable of [src] must map to the corresponding head term of [dst],
   and head constants must agree. *)
let head_seed src dst =
  if Query.arity src <> Query.arity dst then None
  else
    let rec go subst src_terms dst_terms =
      match (src_terms, dst_terms) with
      | [], [] -> Some subst
      | s :: src_terms, d :: dst_terms -> (
          match s with
          | Term.Const c -> (
              match d with
              | Term.Const c' when Dc_relational.Value.equal c c' ->
                  go subst src_terms dst_terms
              | _ -> None)
          | Term.Var v -> (
              match Subst.extend subst v d with
              | Some subst -> go subst src_terms dst_terms
              | None -> None))
      | _ -> None
    in
    go Subst.empty (Query.head src) (Query.head dst)

let find ~src ~dst =
  match head_seed src dst with
  | None -> None
  | Some init -> embed_atoms ~init (Query.body src) (Query.body dst)

let exists ~src ~dst = Option.is_some (find ~src ~dst)
