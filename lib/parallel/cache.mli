(** A memo table shared by every thread and domain and read without a
    lock: an immutable map published through an atomic.  A miss builds
    its value outside any lock and publishes it by compare-and-set, so
    no caller waits on another's build.  When two callers build one key
    at once, the later to publish returns the earlier's entry and drops
    its own, counted under {!Metrics.Key.cache_lost_races}.  Every
    engine cache is one: [Dc_cq.Eval]'s index and compiled-plan tables
    and the citation engine's leaf table. *)

module Make (Key : Map.OrderedType) : sig
  type 'a t

  val create : ?capacity:int -> hits:string -> misses:string -> unit -> 'a t
  (** An empty table counting its lookups under the {!Metrics} counters
      [hits] and [misses].  With [capacity], filing a new key in a table
      of [capacity] entries empties it first. *)

  val find_or_add : 'a t -> Key.t -> ?valid:('a -> bool) -> (unit -> 'a) -> 'a
  (** The entry filed under the key, if [valid] (default: always)
      accepts it; else [build ()], filed in its place unless an entry
      [valid] accepts was filed meanwhile, which is returned instead.
      An exception from [build] files nothing. *)
end
