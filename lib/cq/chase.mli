(** The chase: closing a query under dependencies, and the containment
    test modulo constraints that falls out of it.

    Chasing treats the query body as a canonical instance.  A TGD step
    finds a homomorphism of the dependency's body into the query and —
    if its head cannot already be embedded consistently — adds the head
    atoms with fresh existential variables (the {e standard/restricted}
    chase).  An EGD step equates two terms: two distinct constants make
    the query unsatisfiable; otherwise one variable is substituted away
    everywhere, including the head.

    The chase may diverge for arbitrary TGDs, so steps are capped
    ([max_steps], default 200); hitting the cap raises
    [Chase_overflow].  Key/FD-style EGDs and acyclic inclusion TGDs
    always terminate well below it.

    [contained q1 q2] under dependencies Σ holds iff there is a
    homomorphism from [q2] into chase_Σ([q1]) — the classic
    containment-modulo-constraints characterization, covering the
    equational chase of the paper's reference [10] for our fragment. *)

exception Chase_overflow

type outcome =
  | Chased of Query.t  (** the closure; equivalent to the input under Σ *)
  | Unsatisfiable
      (** an EGD equated two distinct constants: the query has no
          answers on any instance satisfying Σ *)

val chase : ?max_steps:int -> Dependency.t list -> Query.t -> outcome

val contained : ?max_steps:int -> Dependency.t list -> Query.t -> Query.t -> bool
(** [contained deps q1 q2] — is [q1 ⊆ q2] on every instance satisfying
    [deps]? *)

val equivalent : Dependency.t list -> Query.t -> Query.t -> bool
