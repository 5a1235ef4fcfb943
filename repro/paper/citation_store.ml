open Dc_citation
module Value = Dc_relational.Value

type t = (string, Citation.Set.t) Hashtbl.t

let create () : t = Hashtbl.create 32

let put store set =
  let key = Citation.Set.content_key set in
  if not (Hashtbl.mem store key) then Hashtbl.add store key set;
  key

let get store key = Hashtbl.find_opt store key
let entries store = Hashtbl.length store

let contains_ci hay needle =
  let hay = String.lowercase_ascii hay in
  let needle = String.lowercase_ascii needle in
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let citation_matches needle c =
  contains_ci (Citation.view c) needle
  || List.exists
       (fun (n, v) ->
         contains_ci n needle || contains_ci (Value.to_string v) needle)
       (Citation.params c)
  || List.exists
       (fun s ->
         List.exists
           (fun (n, v) ->
             contains_ci n needle || contains_ci (Value.to_string v) needle)
           (Snippet.fields s))
       (Citation.snippets c)

let search store needle =
  Hashtbl.fold
    (fun key set acc ->
      List.fold_left
        (fun acc c ->
          if citation_matches needle c then (key, c) :: acc else acc)
        acc set)
    store []
  |> List.sort compare

let reference store set =
  let key = Citation.Set.content_key set in
  if Hashtbl.mem store key then Some key else None
