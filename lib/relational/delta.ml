module Smap = Map.Make (String)

type change = Insert of Tuple.t | Delete of Tuple.t

type t = change list Smap.t
(* Change lists are kept newest first, so a push is O(1); every reader
   reverses them back into application order. *)

let empty = Smap.empty

let push d rel c =
  Smap.update rel
    (fun cs -> Some (c :: Option.value ~default:[] cs))
    d

let insert d rel tuple = push d rel (Insert tuple)
let delete d rel tuple = push d rel (Delete tuple)
let changes d = Smap.bindings (Smap.map List.rev d)

let select f d rel =
  match Smap.find_opt rel d with
  | None -> []
  | Some cs -> List.rev (List.filter_map f cs)

let inserted = select (function Insert t -> Some t | Delete _ -> None)
let deleted = select (function Delete t -> Some t | Insert _ -> None)
let size d = Smap.fold (fun _ cs acc -> acc + List.length cs) d 0

let apply db d =
  Smap.fold
    (fun rel cs db ->
      List.fold_left
        (fun db c ->
          match c with
          | Insert t -> Database.insert db rel t
          | Delete t -> Database.delete db rel t)
        db (List.rev cs))
    d db

let between old_db new_db =
  let names =
    List.sort_uniq String.compare
      (Database.relation_names old_db @ Database.relation_names new_db)
  in
  List.fold_left
    (fun d n ->
      match (Database.relation old_db n, Database.relation new_db n) with
      | Some o, Some nw ->
          let ins, del = Relation.diff o nw in
          let d = List.fold_left (fun d t -> delete d n t) d del in
          List.fold_left (fun d t -> insert d n t) d ins
      | Some o, None ->
          List.fold_left (fun d t -> delete d n t) d (Relation.tuples o)
      | None, Some nw ->
          List.fold_left (fun d t -> insert d n t) d (Relation.tuples nw)
      | None, None -> d)
    empty names

let union a b =
  Smap.union (fun _ ca cb -> Some (cb @ ca)) a b

let restrict d rels = Smap.filter (fun rel _ -> List.mem rel rels) d

let net ~before ~after d =
  let mem db rel t =
    match Database.relation db rel with
    | Some r -> Relation.mem r t
    | None -> false
  in
  Smap.fold
    (fun rel cs acc ->
      let touched =
        List.fold_left
          (fun s (Insert t | Delete t) -> Tuple.Set.add t s)
          Tuple.Set.empty cs
      in
      Tuple.Set.fold
        (fun t acc ->
          match (mem before rel t, mem after rel t) with
          | false, true -> insert acc rel t
          | true, false -> delete acc rel t
          | _ -> acc)
        touched acc)
    d empty

let pp_change ppf = function
  | Insert t -> Format.fprintf ppf "+%a" Tuple.pp t
  | Delete t -> Format.fprintf ppf "-%a" Tuple.pp t

let pp ppf d =
  let pp_rel ppf (rel, cs) =
    Format.fprintf ppf "@[<2>%s:@ %a@]" rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
         pp_change)
      cs
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_rel)
    (changes d)
