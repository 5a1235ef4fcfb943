(** Compiled query plans: the slot-based join kernel.

    {!Eval} historically re-interpreted a conjunctive query on every
    call: body atoms were greedily re-ordered per evaluation, bindings
    lived in a name-keyed string map, and every index probe allocated a
    fresh key tuple.  A plan does all of that work {e once}, at compile
    time:

    - every variable is numbered into an integer {e slot}; at run time
      the whole valuation is a mutable [Value.t array] register file —
      no string map is touched on the join path;
    - body atoms are ordered once, by estimated cost from
      {!Dc_relational.Stats} cardinalities and per-column selectivities,
      which are memoized on the relation values themselves (the
      interpreter re-scored atoms on each evaluation); the last atom
      left is placed without costing, so a one-atom body reads no
      statistics;
    - for each atom the bound/free position split is resolved
      statically: bound positions (constants and already-bound slots)
      become an index key filled into the run's buffer and probed
      with {!Dc_relational.Index.probe} into the run's answer slot,
      whose ascending slice of matches the kernel walks in place; free
      positions compile to [Bind]/[Check] register ops;
    - the per-atom hash indexes are resolved (through the shared index
      cache) at compile time and stored in the plan;
    - when the first atom in join order is a scan, the plan records
      which of its positions bind the head's leading terms, so that a
      caller grouping answers can have the outer relation iterated in
      head order ({!execute}'s [~head_order]).

    A plan captures the relation values it was compiled against:
    {!valid} checks them by physical identity, so a cached plan is
    transparently recompiled after the database evolves — the same
    self-invalidation contract as the index cache.

    A compiled plan is immutable: each {!execute} allocates its own
    register file, key buffers and probe answer slots
    ({!Dc_relational.Index.matches}), once per run and once per step,
    so one plan may run on any number of threads and domains at once.
    The state it reaches through the relations is safe to share too:
    an index publishes its table through an atomic, and a relation's
    memoized scans and statistics are benign races. *)

type t

type source =
  | Const of Dc_relational.Value.t
  | Slot of int  (** read the register file at this slot *)

val compile :
  relation:(string -> Dc_relational.Relation.t) ->
  index:(string -> int list -> Dc_relational.Index.t) ->
  Dc_relational.Database.t ->
  Query.t ->
  t
(** [compile ~relation ~index db q] builds the plan.  [relation]
    resolves a body predicate to its extent (raising the caller's
    unknown-relation exception — every body predicate is resolved
    eagerly, so compilation fails up front on a missing relation);
    [index] supplies the hash index for a (predicate, bound-positions)
    pair, normally {!Eval}'s shared index cache.  The statistics of
    [db]'s relations feed the cost-based join order.  The nullary [True] atom is dropped. *)

val valid : t -> Dc_relational.Database.t -> bool
(** Whether every relation captured at compile time is still (physically)
    the relation of that name in [db]. *)

val slots : t -> string array
(** The variable name held by each register slot.  Every body variable
    of the (True-stripped) query has exactly one slot. *)

val atom_order : t -> string list
(** Predicate names of the body atoms in chosen join order (diagnostic:
    benches and tests assert the cost-based ordering). *)

val head_tuple : t -> Dc_relational.Value.t array -> Dc_relational.Tuple.t
(** The head tuple under the given register file (constants inlined,
    variables read from their slots): one fresh array and nothing else
    allocated, no closure included. *)

val compare_head :
  t -> Dc_relational.Value.t array -> Dc_relational.Tuple.t -> int
(** [compare_head t regs prev] compares {!head_tuple}[ t regs] with
    [prev], a head tuple of [t], without building the former: [0] when
    they are equal, else [i + 1] when they first differ at column [i]
    and the head under [regs] is the greater, [-(i + 1)] when it is the
    smaller.  So a result [d] with [0 < d <= ]{!head_prefix}[ t] means a
    greater head prefix.  Allocates nothing. *)

val head_prefix : t -> int
(** How many leading head columns {!execute}[ ~head_order:true] emits
    in order: the emissions' head tuples, cut to their first
    [head_prefix t] columns, are non-decreasing under
    {!Dc_relational.Tuple.compare}.  When the first step of the join
    order is a scan (its atom has no constant), the prefix runs over
    the head's leading terms: a constant counts as bound, and the
    prefix stops at the first head variable that atom does not bind.  It is [0] for a plan whose first step is a probe,
    and for an empty body.  The join order does not depend on it. *)

val execute :
  ?head_order:bool -> t -> (Dc_relational.Value.t array -> unit) -> unit
(** Run the join.  The callback is invoked once per satisfying
    valuation with the register file; it must read what it needs
    immediately and {b not retain the array} — the kernel keeps
    mutating it in place.  A scan walks the relation's memoized scan
    array and a probe the slice {!Dc_relational.Index.probe} answers,
    both by index in ascending tuple order: once the probed tables are
    built, a probe allocates nothing, neither a list of matches nor a
    closure to walk them.  With
    [~head_order:true] (default [false]) the first step's scan visits
    the outer relation sorted by the positions binding the
    {!head_prefix}: the extent's own order when they are a column
    prefix [0..k-1], else {!Dc_relational.Relation.scan_by}'s copy,
    memoized on the relation value.  Every later step runs nested
    inside one outer tuple, so emissions then arrive in non-decreasing
    head-prefix order; and since both probe paths of an index answer
    in one order, a table bought in the middle of the run does not
    change the order of the emissions.  The set of emissions is the
    same either way. *)

val pp : Format.formatter -> t -> unit
(** Human-readable plan: atoms in join order with their key positions. *)
