open Dc_cq

let drop_atom q atom =
  let body = List.filter (fun a -> not (a == atom)) (Query.body q) in
  if body = [] then None
  else
    match
      Query.make ~params:(Query.params q) ~name:(Query.name q)
        ~head:(Query.head q) ~body ()
    with
    | Ok q' -> Some q'
    | Error _ -> None (* removal would break safety *)

let removable q atom =
  match drop_atom q atom with
  | None -> false
  (* q' has fewer atoms so q ⊆ q' always; equivalence needs q' ⊆ q. *)
  | Some q' -> Containment.contained q' q

let rec minimize q =
  match List.find_opt (removable q) (Query.body q) with
  | None -> q
  | Some atom -> (
      match drop_atom q atom with
      | Some q' -> minimize q'
      | None -> q)
