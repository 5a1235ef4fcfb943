module Cq = Dc_cq

type level = Naive | Filtered

let entries_for_subgoal ~level ~counter views query i atom =
  let relevant = View.Set.with_predicate views (Cq.Atom.pred atom) in
  List.concat_map
    (fun view ->
      List.filter_map
        (fun batom ->
          if String.equal (Cq.Atom.pred batom) (Cq.Atom.pred atom) then begin
            incr counter;
            let fresh = View.freshen view !counter in
            let fresh_batom =
              (* recover the corresponding body atom of the freshened
                 view by position *)
              let orig_body = Cq.Query.body (View.definition view) in
              let fresh_body = Cq.Query.body (View.definition fresh) in
              let rec find o f =
                match (o, f) with
                | ob :: _, fb :: _ when ob == batom -> fb
                | _ :: o, _ :: f -> find o f
                | _ -> assert false
              in
              find orig_body fresh_body
            in
            match
              Cq.Unify.Classes.union_atoms Cq.Unify.Classes.empty fresh_batom
                atom
            with
            | None -> None
            | Some classes ->
                Candidate.of_classes
                  ~check_exposure:(level = Filtered)
                  ~query ~view ~fresh ~classes ~covered:[ i ] ()
          end
          else None)
        (Cq.Query.body (View.definition view)))
    relevant

let buckets ~level views query =
  let counter = ref 0 in
  Array.of_list
    (List.mapi
       (fun i atom -> entries_for_subgoal ~level ~counter views query i atom)
       (Cq.Query.body query))
