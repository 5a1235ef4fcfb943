(** From rewritings and answers to formal citation expressions: the
    paper's Definitions 2.1 and 2.2, computed from only what they
    depend on.

    Given a rewriting [Q'] of [Q] over citation views and a binding [B]
    yielding tuple [t], Definition 2.1 cites [t] under [B] as the
    [Joint] of one leaf per view atom, each leaf fixing the parameter
    valuation [Bi] ({!leaf_of_atom}); Definition 2.2 sums those under
    [Alt] over every binding that yields [t]; several rewritings
    combine under [+R], and the answer aggregates its tuples under
    [Agg].  Base (non-view) atoms in a partial rewriting contribute no
    leaf.  The literal definitions over full bindings are the test
    oracle of this module. *)

val leaf_of_atom :
  Citation_view.Set.t ->
  Dc_cq.Atom.t ->
  Dc_cq.Eval.Binding.t ->
  Cite_expr.t option
(** [None] when the atom's predicate is not a citation view. *)

(** {1 Projected computation}

    A binding's expression reads the values of the variables that fill
    view parameters, nothing else, so a {!template} of a rewriting
    lists those variables once; the evaluator then returns their
    distinct valuations per tuple ({!Dc_cq.Eval.run_projected}).  When
    no cited atom has a variable parameter (unparameterized views such
    as the paper's [V2]/[V3], constant parameters, or an uncovered
    query cited as itself) the per-tuple expression does not depend on
    the data at all: it is decided from the schema alone (paper §3,
    "Calculating citations") and the template carries it ready-made. *)

type template

val template :
  Dc_rewriting.View.Set.t -> Citation_view.Set.t -> Dc_cq.Query.t -> template
(** [template views cviews rw]: the citation template of the rewriting
    [rw], together with its expansion over the base schema
    ({!Dc_rewriting.Expansion.expand}, computed here once).  [views]
    must be [cviews]' view set. *)

val map_constants :
  (Dc_relational.Value.t -> Dc_relational.Value.t) -> template -> template
(** The template of the rewriting with every constant renamed, in
    O(template size): for a map that is injective and fixes every
    constant of the view definitions, [map_constants f (template views
    cviews rw)] is [template views cviews (Query.map_constants f rw)],
    since expansion only ever tests constants for equality. *)

val vars : template -> string list
(** The distinct variables that fill a view parameter, in order of
    first occurrence; the projection arrays follow this order. *)

val expansion : template -> Dc_cq.Query.t option
(** The rewriting's expansion, which {!run} evaluates: it names base
    relations and (for views over a program's recursive predicates) IDB
    predicates, never a view.  [None] for a vacuous rewriting. *)

val fold :
  ?cache:Dc_cq.Eval.cache ->
  Dc_relational.Database.t ->
  template ->
  (Dc_relational.Tuple.t -> Dc_relational.Value.t array list -> 'a -> 'a) ->
  'a ->
  'a
(** The rewriting's answers with the distinct projections of their
    bindings on {!vars}, folded in {!Dc_cq.Eval.fold_projected}'s form
    and order, each answer handed on as its block of the join completes;
    computed by evaluating the {e expansion} over the base relations of
    [db] (plus the IDB relations it names): no view extent is read or
    built.  A rewriting's answers over the view extents are its
    expansion's answers, and the expansion's bindings project onto
    exactly the rewriting's bindings.  A variable that head unification
    equated with another, or bound to a constant, is read through the
    expansion's substitution: each projection is widened before the
    fold sees it.  A vacuous rewriting (its expansion does not unify)
    has no answers. *)

val run :
  ?cache:Dc_cq.Eval.cache ->
  Dc_relational.Database.t ->
  template ->
  (Dc_relational.Tuple.t * Dc_relational.Value.t array list) list
(** {!fold}'s answers collected into a list, in its order. *)

val rule : string -> template -> Dc_cq.Rule.t option
(** [rule p t]: {!run} as a Datalog rule with head [p], one row per
    answer and projection, the answer followed by the projection on
    {!vars}; [None] for a vacuous rewriting. *)

val rewriting_expr :
  template -> Dc_relational.Value.t array list -> Cite_expr.t
(** [rewriting_expr t projections] is [projected_expr [ (t, projections) ]]:
    the normalized expression of a tuple that one rewriting alone
    produces, without building the one-element list. *)

val projected_expr :
  (template * Dc_relational.Value.t array list) list -> Cite_expr.t
(** The {e normalized} expression of one tuple (Definition 2.2, with
    [+R] over rewritings), given for each rewriting producing it the
    distinct projections of its bindings on the template's [vars].
    Equal to the normalized literal definition over the full bindings;
    every node is normalized once, as it is built.  For a single
    data-independent rewriting ([vars] empty) it returns the template's
    one expression, physically the same for every tuple. *)
