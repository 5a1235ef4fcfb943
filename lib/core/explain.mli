(** Human-readable explanations of answers and their citations.

    For a tuple in a cite result, the explanation lists — per evaluated
    rewriting — every binding that derives the tuple (Definition 2.2's
    β_t, shown concretely) and the citation leaf each view atom
    contributes under that binding (Definition 2.1).  This is the
    why-provenance of the answer rendered in citation terms. *)

val render : Engine.t -> Engine.result -> Dc_relational.Tuple.t -> string
(** One ["  via <rewriting> with {<binding>}"] line per derivation of
    the tuple, each followed by the leaves it cites, then the tuple's
    formal expression; says so when the tuple is not in the result. *)
