(** Datalog programs: the single definition surface for derived data.

    A program couples a stratified rule set with {e exports} — the view
    predicates the outside world may query and cite.  An export is a
    conjunctive query over EDB and IDB predicates plus its citation
    queries, exactly the shape [Citation_view] consumes; engines accept
    a program wholesale instead of hand-assembled view lists, so rules,
    views and citation queries all enter through one door.

    Rewriting over recursive predicates is deliberately restricted (the
    ROADMAP's starting point): {!unfold_exports} inlines definitions
    from non-recursive strata into export bodies where that is sound,
    and leaves every recursive (or negated, or multi-rule) predicate as
    an opaque atom — the engine materializes those via {!Seminaive} and
    treats them as EDB during rewriting. *)

type export = { view : Query.t; citations : Query.t list }

type t = private {
  rules : Rule.t list;
  strat : Stratify.t;
  exports : export list;
}

val make : ?exports:export list -> Rule.t list -> (t, string) result
(** Stratifies the rules ({!Stratify.run} errors propagate) and checks
    each export: view bodies and citation queries may only mention EDB
    or IDB predicates with consistent arities, and an export name must
    not shadow an IDB predicate. *)

val rules : t -> Rule.t list
val exports : t -> export list
val strata : t -> Rule.t list list
val idb_preds : t -> string list
val recursive_preds : t -> string list
val is_idb : t -> string -> bool

val unfold_exports : t -> export list
(** Exports with non-recursive IDB atoms inlined: an atom [P(t̄)] in a
    view body unfolds when [P] is defined by exactly one negation-free
    rule and is not recursive; the rule is renamed apart and its body
    substituted in place of the atom.  Unfolding iterates to a bounded
    depth; anything left (recursive, negated, multi-rule predicates)
    stays an atom for the engine to treat as EDB.  Citation queries are
    returned untouched. *)

val parse : string -> (t, string) result
(** Parses a program text — rules, [export <query>] and [cite <query>]
    statements, [";"]-separated (see {!Parser.parse_statements}).  Each
    [cite] attaches to the closest preceding [export]. *)

val parse_exn : string -> t

val to_string : t -> string
