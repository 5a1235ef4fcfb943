module R = Dc_relational
open Dc_citation

type t = (int * Citation_view.t list) list
(* Epochs sorted by starting version, ascending; always non-empty,
   first epoch starts at 0. *)

let create views = [ (0, views) ]

let update registry ~from_version views =
  let latest = List.fold_left (fun acc (v, _) -> max acc v) 0 registry in
  if from_version <= latest then
    invalid_arg
      (Printf.sprintf
         "View_registry.update: epoch %d not after latest epoch %d"
         from_version latest)
  else registry @ [ (from_version, views) ]

let active_at registry version =
  let rec go best = function
    | [] -> best
    | (from, views) :: rest ->
        if from <= version then go views rest else best
  in
  match registry with
  | (_, first) :: rest -> go first rest
  | [] -> assert false

let epochs registry =
  List.map
    (fun (from, views) -> (from, List.map Citation_view.name views))
    registry

let cite_at ?policy ?selection ~store registry ~version query =
  match R.Version_store.checkout store version with
  | None -> Error (Printf.sprintf "version %d not in store" version)
  | Some db ->
      let engine =
        Engine.create ?policy ?selection db (active_at registry version)
      in
      Ok (Engine.cite engine query)
