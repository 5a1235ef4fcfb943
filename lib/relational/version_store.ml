type version = int

module Imap = Map.Make (Int)

(* [delta] is the commit's delta from the previous version, when the
   commit was made from one. *)
type entry = { db : Database.t; at : int; delta : Delta.t option }

type t = {
  entries : entry Imap.t;
  head : version;
  (* [None] is the default deterministic clock: version [v] is stamped
     [at = v + 1] (the historical counter behaviour), computed from the
     head entry so a store {!restore}d at an arbitrary version keeps
     ticking monotonically from its restored timestamp. *)
  clock : (unit -> int) option;
}

let create ?clock db =
  let at = match clock with Some c -> c () | None -> 1 in
  { entries = Imap.singleton 0 { db; at; delta = None }; head = 0; clock }

let restore ~version ~at db =
  if version < 0 then invalid_arg "Version_store.restore: negative version";
  {
    entries = Imap.singleton version { db; at; delta = None };
    head = version;
    clock = None;
  }

let head s = s.head
let head_db s = (Imap.find s.head s.entries).db
let head_at s = (Imap.find s.head s.entries).at

let commit_at ?delta s ~at db =
  let v = s.head + 1 in
  ({ s with entries = Imap.add v { db; at; delta } s.entries; head = v }, v)

let commit ?delta s db =
  let at = match s.clock with Some c -> c () | None -> head_at s + 1 in
  commit_at ?delta s ~at db

(* THE delta-application path.  [commit_delta] below and every caller
   that maintains derived state next to the store (the versioned
   engine's incremental registrations) obtain the post-delta database
   from this one function, so head and derived state are the same
   value and can never diverge on change ordering. *)
let apply_head s delta = Delta.apply (head_db s) delta

let commit_delta s delta = commit ~delta s (apply_head s delta)

let checkout s v = Option.map (fun e -> e.db) (Imap.find_opt v s.entries)

let checkout_exn s v =
  match checkout s v with Some db -> db | None -> raise Not_found

let timestamp s v = Option.map (fun e -> e.at) (Imap.find_opt v s.entries)
let versions s = List.map fst (Imap.bindings s.entries)

let version_at s time =
  Imap.fold
    (fun v e best -> if e.at <= time then Some v else best)
    s.entries None

(* The recorded commit deltas of (v1, v2], when every one was kept. *)
let recorded s v1 v2 =
  let rec go acc v =
    if v > v2 then Some acc
    else
      match Imap.find_opt v s.entries with
      | Some { delta = Some d; _ } -> go (Delta.union acc d) (v + 1)
      | _ -> None
  in
  if v1 > v2 then None else go Delta.empty (v1 + 1)

let delta_between s v1 v2 =
  match (checkout s v1, checkout s v2) with
  | Some d1, Some d2 -> (
      match recorded s v1 v2 with
      | Some d -> Some d
      | None -> Some (Delta.between d1 d2))
  | _ -> None
