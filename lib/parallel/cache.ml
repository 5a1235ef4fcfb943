(* The table is replaced whole by compare-and-set, with its size kept
   beside the map, since [Map.cardinal] walks it.  A compare-and-set
   that fails because another key was filed retries on the new table;
   only an accepted entry under the same key makes the build a lost
   race. *)
module Make (Key : Map.OrderedType) = struct
  module M = Map.Make (Key)

  type 'a table = { map : 'a M.t; size : int }

  type 'a t = {
    table : 'a table Atomic.t;
    capacity : int;
    hits : string;
    misses : string;
  }

  let create ?(capacity = max_int) ~hits ~misses () =
    { table = Atomic.make { map = M.empty; size = 0 }; capacity; hits; misses }

  let rec publish t k valid v =
    let cur = Atomic.get t.table in
    match M.find_opt k cur.map with
    | Some w when valid w ->
        Metrics.record Metrics.Key.cache_lost_races;
        w
    | stale ->
        let next =
          if Option.is_some stale then { cur with map = M.add k v cur.map }
          else if cur.size >= t.capacity then { map = M.singleton k v; size = 1 }
          else { map = M.add k v cur.map; size = cur.size + 1 }
        in
        if Atomic.compare_and_set t.table cur next then v
        else publish t k valid v

  let find_or_add t k ?(valid = fun _ -> true) build =
    match M.find_opt k (Atomic.get t.table).map with
    | Some v when valid v ->
        Metrics.record t.hits;
        v
    | _ ->
        Metrics.record t.misses;
        publish t k valid (build ())
end
